"""Reference even operators on primed tableaux, over the whole tableau.

``_bold_letter`` reads the full reading word with cell provenance
(``reference_validators.rw_pt_cells``) and brackets it with
``words.unbracketed``.
``f_even_pt`` applies the ribbon rule to the full cell map, or to the
full conjugate for a primed bold letter, and ``e_even_pt`` rebuilds
every candidate preimage in full to read its bracketing again.  They are
kept as oracles for ``qcrystal.ptops.f_even_pt``/``e_even_pt``, which
read and write only the cells holding i', i, (i+1)' or i+1.  The ribbon
rewrites (``_ribbon``, ``_ribbon_head``, ``_unribbon``) are the
library's own.

``conjugate`` reflects a tableau over the main diagonal, turning k' into
k and k into (k+1)'; ``conjugate_inverse`` reflects back and rejects a
cell set that is not a shifted shape.
"""

from typing import Iterator, Optional

from qcrystal import words
from qcrystal import tableaux as tb
from qcrystal.ptops import _ribbon, _ribbon_head, _unribbon
from qcrystal.tableaux import InvariantError, Rows
from reference_validators import rw_pt_cells


def conjugate(rows: Rows) -> dict[tuple[int, int], int]:
    """The reflected tableau as a plain cell -> code mapping (it is not a
    shifted-shape tableau)."""
    return {
        (c, r): rows[r][c - r] + 1
        for r in range(len(rows))
        for c in range(r, r + len(rows[r]))
    }


def conjugate_inverse(cells: dict[tuple[int, int], int]) -> Rows:
    back: dict[tuple[int, int], int] = {
        (c, r): v - 1 for (r, c), v in cells.items()
    }
    nrows = max((r for r, _ in back), default=-1) + 1
    rows = []
    for r in range(nrows):
        cols = sorted(c for (rr, c) in back if rr == r)
        if cols != list(range(r, r + len(cols))):
            raise ValueError("conjugate image is not a shifted shape")
        rows.append(tuple(back[(r, c)] for c in cols))
    return tuple(rows)


def _bold_letter(t: Rows, i: int, raising: bool = False
                 ) -> Optional[tuple[tuple[int, int], bool]]:
    """Cell and primality of the bold letter in rw(t): the rightmost
    unbracketed i, or when raising the leftmost unbracketed i+1."""
    items = rw_pt_cells(t)
    values = tuple(v for v, _, _ in items)
    openers, closers = words.unbracketed(i, values)
    picks = openers[:1] if raising else closers[-1:]
    if not picks:
        return None
    _, primed, cell = items[picks[0]]
    return cell, primed


def f_even_pt(i: int, t: Rows) -> Optional[Rows]:
    bold = _bold_letter(t, i)
    if bold is None:
        return None
    cell, primed = bold
    if primed:
        cells = conjugate(t)
        _ribbon(cells, (cell[1], cell[0]), i, allow_2b=False)
        return conjugate_inverse(cells)
    cells = tb.cell_map(t)
    _ribbon(cells, cell, i, allow_2b=True)
    return tb.from_cells(tb.shape_of(t), cells)


def _preimages(i: int, t: Rows, y: tuple[int, int], primed: bool
               ) -> Iterator[tuple[Rows, tuple[tuple[int, int], bool]]]:
    """Candidates for e_i(t) with bold letter at y, in rule order, each
    with the letter it lowered to i (cell and primality)."""
    shape = tb.shape_of(t)
    if primed:
        cells = tb.cell_map(t)
        head = _ribbon_head(cells, y, i)
        if head != y and head[0] == head[1]:
            cells[y] = tb.code(i, False)
            yield tb.from_cells(shape, cells), (y, False)
        conj = conjugate(t)
        for changes, (r, c) in _unribbon(conj, (y[1], y[0]), i):
            yield conjugate_inverse({**conj, **changes}), ((c, r), True)
    else:
        cells = tb.cell_map(t)
        for changes, x in _unribbon(cells, y, i):
            yield tb.from_cells(shape, {**cells, **changes}), (x, False)


def e_even_pt(i: int, t: Rows) -> Optional[Rows]:
    bold = _bold_letter(t, i, raising=True)
    if bold is None:
        return None
    out = next((s for s, lowered in _preimages(i, t, *bold)
                if _bold_letter(s, i) == lowered), None)
    if out is None:
        raise InvariantError(
            "inverse ribbon produced no valid tableau: no candidate")
    return out
