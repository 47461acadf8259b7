"""Reference insertions: plain Kraśkiewicz, and mixed insertion by cases.

``kr`` inserts letter by letter and records each new box's step number;
``kr_inverse`` removes boxes in decreasing order of Q, tries every
local undoing of each bump chain (``reverse_steps``, a search with no
reducedness test), and re-inserts every leaf.  They are kept as oracles
for ``qcrystal.kraskiewicz.kr``/``kr_inverse``, which run the primed
insertion on one-letter factors and undo each chain along its one
reduced path instead.  The row step and its local inverses are the
library's own.

``row_candidates`` and ``vee_bottom_cells`` are the plain forms of the
library's kernels: the first tries every split of the row and keeps the
decreasing/increasing ones, the second tests every index as the corner.

``hm``/``hm_inverse`` are the mixed insertion with separate row and
column branches, forward and reverse, kept as the oracle for
``qcrystal.mixed``, which runs one bump and one predecessor rule on
both kinds of line.
"""

from bisect import bisect_left, bisect_right
from typing import Optional, Sequence

from qcrystal import tableaux as tb
from qcrystal import typeb
from qcrystal.kraskiewicz import (
    InsertionError, _has_101, _insert, _row_candidates, _row_step,
    validate_sdt)
from qcrystal.tableaux import InvariantError, NotInImage, Rows
from reference_validators import strictly_increasing


def row_candidates(row: tuple[int, ...], out: int):
    """Possible (previous row, inserted letter) pairs for one reverse step."""
    cands = set()
    if out == 0 and _has_101(row):
        cands.add((row, 0))
    for k in range(1, len(row) + 1):
        dstar, istar = row[:k], row[k:]
        if not (strictly_increasing(dstar[::-1])
                and strictly_increasing(istar)):
            continue
        dphase = []
        bigger = [x for x in dstar if x > out]
        if bigger:
            c = min(bigger)
            pos = dstar.index(c)
            dphase.append((c, dstar[:pos] + (out,) + dstar[pos + 1:]))
        if out + 1 in dstar:
            dphase.append((out + 1, dstar))
        for c, dec_old in dphase:
            smaller = [x for x in istar if x < c]
            if smaller:
                a = max(smaller)
                pos = istar.index(a)
                cands.add((dec_old + istar[:pos] + (c,) + istar[pos + 1:], a))
            if c - 1 in istar:
                cands.add((dec_old + istar, c - 1))
    return cands


def vee_bottom_cells(cells) -> Optional[int]:
    """1-based index of the corner of a vee of cells, or None."""
    xs = [r for r, _ in cells]
    ys = [c for _, c in cells]
    valid = []
    for k in range(1, len(cells) + 1):
        if (
            all(xs[t] < xs[t + 1] for t in range(k - 1))
            and all(xs[t] >= xs[t + 1] for t in range(k - 1, len(xs) - 1))
            and all(ys[t] >= ys[t + 1] for t in range(k - 1))
            and all(ys[t] < ys[t + 1] for t in range(k - 1, len(ys) - 1))
        ):
            valid.append(k)
    if not valid:
        return None
    if len(valid) != 1:
        raise InvariantError(f"ambiguous vee corner: {valid}")
    return valid[0]


def kr(word: Sequence[int]) -> tuple[Rows, Rows]:
    """Insertion and recording tableaux of a reduced word."""
    if not typeb.is_reduced(word):
        raise ValueError(f"word {tuple(word)} is not reduced")
    p: Rows = ()
    q_work: list[list[int]] = []
    for step, a in enumerate(word, start=1):
        p, (r, c) = _insert(p, a)
        if r == len(q_work):
            q_work.append([])
        if len(q_work[r]) != c - r:
            raise InvariantError("recording cell out of order")
        q_work[r].append(step)
    q = tb.freeze(q_work)
    msg = tb.validate_st(q)
    if msg is not None:
        raise InvariantError(f"recording tableau invalid: {msg}")
    return p, q


def reverse_steps(rows: Rows, r_end: int, c_end: int) -> list:
    """All (rows', a) whose insertion chain appends the cell (r_end, c_end).

    A single row step is not injective -- e.g. inserting 1 into (0, 1)
    and into (0, 2) both leave the row (2, 1) and pass 0 down -- so a
    removal can have several local undoings.  The caller must try them
    all; only one leads back to a reduced word.
    """
    if not (0 <= r_end < len(rows)
            and c_end == r_end + len(rows[r_end]) - 1
            and (r_end == len(rows) - 1
                 or len(rows[r_end]) - 1 > len(rows[r_end + 1]))):
        return []
    work = list(rows)
    out = work[r_end][-1]
    if len(work[r_end]) == 1:
        work.pop()
    else:
        work[r_end] = work[r_end][:-1]
    solutions = []

    def rec(j: int, state: tuple, val: int):
        if j < 0:
            solutions.append((state, val))
            return
        for cand_row, cand_a in sorted(_row_candidates(state[j], val)):
            if not tb.is_unimodal(cand_row):
                continue
            try:
                step = _row_step(cand_row, cand_a)
            except InsertionError:
                continue
            if step == ("cont", state[j], val):
                rec(j - 1, state[:j] + (cand_row,) + state[j + 1:], cand_a)

    rec(r_end - 1, tuple(work), out)
    return solutions


def kr_inverse(p: Rows, q: Rows) -> tuple[int, ...]:
    """The reduced word w with kr(w) = (p, q); NotInImage otherwise."""
    msg = validate_sdt(p)
    if msg is not None:
        raise NotInImage(f"insertion tableau invalid: {msg}")
    msg = tb.validate_st(q)
    if msg is not None:
        raise NotInImage(f"recording tableau invalid: {msg}")
    if tb.shape_of(p) != tb.shape_of(q):
        raise NotInImage("shapes differ")
    order = sorted(
        ((q[r][c - r], r, c) for r, c in tb.shape_cells(tb.shape_of(q))),
        reverse=True,
    )
    survivors = []

    def rec(rows: Rows, i: int, letters: list):
        if i == len(order):
            word = tuple(reversed(letters))
            try:
                if kr(word) == (p, q):
                    survivors.append(word)
            except ValueError:
                pass
            return
        _, r, c = order[i]
        for new_rows, letter in reverse_steps(rows, r, c):
            rec(new_rows, i + 1, letters + [letter])

    rec(p, 0, [])
    if not survivors:
        raise NotInImage("no reduced word inserts to the pair")
    if len(survivors) != 1:
        raise InvariantError(f"insertion not injective: {survivors}")
    return survivors[0]


def _hm_insert(rows: Rows, letter: int) -> tuple[Rows, tuple[int, int]]:
    """One insertion; returns the new tableau and the added cell (0-based)."""
    work = [list(r) for r in rows]
    mode, k, v = "row", 0, tb.code(letter, False)
    while True:
        if mode == "row":
            if k == len(work):
                work.append([v])
                cell = (k, k)
                break
            row = work[k]
            j = bisect_right(row, v)
            if j == len(row):
                row.append(v)
                cell = (k, k + len(row) - 1)
                break
            c = k + j
            u = row[j]
            row[j] = v
            if c == k:
                mode, k, v = "col", c + 1, u - 1  # primed off the diagonal
            elif tb.code_primed(u):
                mode, k, v = "col", c + 1, u
            else:
                mode, k, v = "row", k + 1, u
        else:
            col_rows = [
                r for r in range(len(work)) if r <= k < r + len(work[r])
            ]
            target = None
            for r in col_rows:
                if work[r][k - r] > v:
                    target = r
                    break
            if target is None:
                r_new = col_rows[-1] + 1 if col_rows else 0
                if r_new == len(work):
                    if r_new != k:
                        raise InvariantError(
                            "column append fell off the staircase")
                    work.append([v])
                else:
                    if r_new + len(work[r_new]) != k:
                        raise InvariantError(
                            "column append is not adjacent to its row")
                    work[r_new].append(v)
                cell = (r_new, k)
                break
            u = work[target][k - target]
            work[target][k - target] = v
            if target == k:
                mode, k, v = "col", k + 1, u - 1
            elif tb.code_primed(u):
                mode, k, v = "col", k + 1, u
            else:
                mode, k, v = "row", target + 1, u
    frozen = tb.freeze(work)
    msg = tb.validate_pt(frozen)
    if msg is not None:
        raise InvariantError(f"insertion produced an invalid tableau: {msg}")
    return frozen, cell


def hm(word: Sequence[int]) -> tuple[Rows, Rows]:
    """Insert a word; returns the (insertion, recording) tableau pair."""
    if any(a < 1 for a in word):
        raise ValueError(f"word {tuple(word)} has a letter below 1")
    p: Rows = ()
    q_work: list[list[int]] = []
    for step, a in enumerate(word, start=1):
        p, (r, c) = _hm_insert(p, a)
        if r == len(q_work):
            q_work.append([])
        if len(q_work[r]) != c - r:
            raise InvariantError("recording cell out of order")
        q_work[r].append(step)
    q = tb.freeze(q_work)
    msg = tb.validate_st(q)
    if msg is not None:
        raise InvariantError(f"recording tableau invalid: {msg}")
    return p, q


def _hm_reverse_chain(rows: Rows, r: int, c: int) -> tuple[Rows, int]:
    """Undo the insertion chain that ended by filling cell (r, c)."""
    work = [list(row) for row in rows]
    v = work[r][c - r]
    if len(work[r]) == c - r + 1:
        if c - r == 0:
            work.pop()
        else:
            work[r].pop()
    else:
        raise NotInImage("chain must start at the end of a row")
    mode, k = ("col", c) if tb.code_primed(v) else ("row", r)
    while True:
        if mode == "row":
            if tb.code_primed(v):
                raise NotInImage("primed value in a row chain")
            if k == 0:
                letter = tb.code_value(v)
                break
            row = work[k - 1]
            j = bisect_left(row, v) - 1
            if j < 0:
                raise NotInImage(f"no row predecessor for {tb.letter_str(v)}")
            if j == 0:
                raise NotInImage("row chain traced back to the diagonal")
            u = row[j]
            row[j] = v
            if tb.code_primed(u):
                mode, k, v = "col", (k - 1) + j, u
            else:
                mode, k, v = "row", k - 1, u
        else:
            if not tb.code_primed(v):
                raise NotInImage("unprimed value in a column chain")
            if k == 0:
                raise NotInImage("column chain reached column 0")
            col = [
                (r2, work[r2][k - 1 - r2])
                for r2 in range(len(work))
                if r2 <= k - 1 < r2 + len(work[r2])
            ]
            below = [(r2, u) for r2, u in col if u < v]
            if not below:
                raise NotInImage(f"no column predecessor for {tb.letter_str(v)}")
            rb, u = below[-1]
            if rb == k - 1:
                # v was primed while crossing the diagonal; unprime it
                work[rb][0] = v + 1
                if tb.code_primed(u):
                    raise NotInImage("primed occupant on the diagonal")
                mode, k, v = "row", rb, u
            else:
                work[rb][k - 1 - rb] = v
                if tb.code_primed(u):
                    mode, k, v = "col", k - 1, u
                else:
                    mode, k, v = "row", rb, u
    return tb.freeze(work), letter


def hm_inverse(p: Rows, q: Rows) -> tuple[int, ...]:
    """The word w with hm(w) = (p, q); raises NotInImage otherwise."""
    msg = tb.validate_pt(p)
    if msg is not None:
        raise NotInImage(f"insertion tableau invalid: {msg}")
    msg = tb.validate_st(q)
    if msg is not None:
        raise NotInImage(f"recording tableau invalid: {msg}")
    if tb.shape_of(p) != tb.shape_of(q):
        raise NotInImage("shapes differ")
    order = sorted(
        ((q[r][c - r], r, c) for r, c in tb.shape_cells(tb.shape_of(q))),
        reverse=True,
    )
    rows = p
    out = []
    for _, r, c in order:
        rows, letter = _hm_reverse_chain(rows, r, c)
        out.append(letter)
    word = tuple(reversed(out))
    if hm(word) != (p, q):
        raise NotInImage("reverse bumping does not reproduce the pair")
    return word
