"""Reference plain Kraśkiewicz insertion with its own loop and search.

``kr`` inserts letter by letter and records each new box's step number;
``kr_inverse`` removes boxes in decreasing order of Q, tries every
local undoing of each bump chain, and re-inserts every leaf.  They are
kept as oracles for ``qcrystal.kraskiewicz.kr``/``kr_inverse``, which
run the primed insertion on one-letter factors instead.  The row step
and its local inverses are the library's own.

``row_candidates`` and ``vee_bottom_cells`` are the plain forms of the
library's kernels: the first tries every split of the row and keeps the
decreasing/increasing ones, the second tests every index as the corner.
"""

from typing import Optional, Sequence

from qcrystal import tableaux as tb
from qcrystal import typeb
from qcrystal.kraskiewicz import (
    _has_101, _insert, _reverse_steps, validate_sdt)
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
        for new_rows, letter in _reverse_steps(rows, r, c):
            rec(new_rows, i + 1, letters + [letter])

    rec(p, 0, [])
    if not survivors:
        raise NotInImage("no reduced word inserts to the pair")
    if len(survivors) != 1:
        raise InvariantError(f"insertion not injective: {survivors}")
    return survivors[0]
