"""Semistandard shifted mixed insertion.

Letters of a word over 1..n are inserted one at a time.  A *line* is a
row or a column of the shifted shape; an unprimed value is inserted
into a row and a primed value into a column.  One bump rule serves
both: the value bumps the first entry of its line that is strictly
greater, or else fills the cell just past the line's end.  A bumped
entry u at (r, c) goes to column c + 1, as u' if it sat on the main
diagonal and as itself if primed, and otherwise to row r + 1.  So the
recording tableau stays plain: the kind of the final placement can be
read off the primality of the new insertion-tableau entry.  hm validates
its final P and Q once, not each intermediate P: that is the insertion
of a prefix, which verify inserts as a word of its own.

hm_inverse undoes the chains cell by cell with one predecessor rule:
v came from the last entry u < v of the line before its own (row or
column k - 1), and u then moves on by the forward routing.  Only a
column chain may step back onto the diagonal, where v is unprimed
back and u must be unprimed.  Every recovered word is re-inserted and
compared, so off-image pairs always raise.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Sequence

from qcrystal import tableaux as tb
from qcrystal.tableaux import InvariantError, NotInImage, Rows


def _line(work: list[list[int]], column: bool, k: int) -> list[tuple[int, int]]:
    """The cells of column k top to bottom, or of row k left to right."""
    if column:
        return [(r, k) for r, row in enumerate(work) if r <= k < r + len(row)]
    return [(k, c) for c in range(k, k + len(work[k]))] if k < len(work) else []


# ---------------------------------------------------------------------------
# forward

def _insert(rows: Rows, letter: int) -> tuple[Rows, tuple[int, int]]:
    """One insertion; returns the new tableau and the added cell (0-based)."""
    work = [list(r) for r in rows]
    k, v = 0, tb.code(letter, False)
    while True:
        column = tb.code_primed(v)
        cells = _line(work, column, k)
        j = bisect_right([work[r][c - r] for r, c in cells], v)
        if j == len(cells):
            break
        r, c = cells[j]
        u, work[r][c - r] = work[r][c - r], v
        if r == c:
            u -= 1  # primed off the diagonal
        k, v = (c + 1 if tb.code_primed(u) else r + 1), u
    r, c = cell = (len(cells), k) if column else (k, k + len(cells))
    if r == len(work) == c:
        work.append([v])
    elif r < len(work) and c == r + len(work[r]):
        work[r].append(v)
    else:
        raise InvariantError(f"insertion cell {cell} is off the shifted shape")
    return tb.freeze(work), cell


def hm(word: Sequence[int]) -> tuple[Rows, Rows]:
    """Insert a word; returns the (insertion, recording) tableau pair."""
    if any(a < 1 for a in word):
        raise ValueError(f"word {tuple(word)} has a letter below 1")
    p: Rows = ()
    q_work: list[list[int]] = []
    for step, a in enumerate(word, start=1):
        p, (r, c) = _insert(p, a)
        if r == len(q_work):
            q_work.append([])
        if len(q_work[r]) != c - r:
            raise InvariantError("recording cell out of order")
        q_work[r].append(step)
    msg = tb.validate_pt(p)
    if msg is not None:
        raise InvariantError(f"insertion produced an invalid tableau: {msg}")
    q = tb.freeze(q_work)
    msg = tb.validate_st(q)
    if msg is not None:
        raise InvariantError(f"recording tableau invalid: {msg}")
    return p, q


# ---------------------------------------------------------------------------
# reverse

def _reverse_chain(rows: Rows, r: int, c: int) -> tuple[Rows, int]:
    """Undo the insertion chain that ended by filling cell (r, c)."""
    work = [list(row) for row in rows]
    if len(work[r]) != c - r + 1:
        raise NotInImage("chain must start at the end of a row")
    v = work[r].pop()
    if not work[r]:
        work.pop()
    k = c if tb.code_primed(v) else r
    while k:
        column = tb.code_primed(v)
        cells = _line(work, column, k - 1)
        j = bisect_left([work[r][c - r] for r, c in cells], v) - 1
        if j < 0:
            kind = "column" if column else "row"
            raise NotInImage(f"no {kind} predecessor for {tb.letter_str(v)}")
        r, c = cells[j]
        u = work[r][c - r]
        if r == c:
            if not column:
                raise NotInImage("row chain traced back to the diagonal")
            if tb.code_primed(u):
                raise NotInImage("primed occupant on the diagonal")
            v += 1  # v was primed while crossing the diagonal; unprime it
        work[r][c - r] = v
        k, v = (c if tb.code_primed(u) else r), u
    if tb.code_primed(v):
        raise NotInImage("column chain reached column 0")
    return tb.freeze(work), tb.code_value(v)


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
        rows, letter = _reverse_chain(rows, r, c)
        out.append(letter)
    word = tuple(reversed(out))
    if hm(word) != (p, q):
        raise NotInImage("reverse bumping does not reproduce the pair")
    return word
