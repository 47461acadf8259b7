"""Crystal operators on primed tableaux.

The odd pair acts on the first row by explicit rules.  The even
lowering operator follows the ribbon procedure: locate the bold letter
through the reading word, then either trade a prime with the entry to
the east or walk the maximal south/west ribbon of letters i+1 and
reshape its head; a primed bold letter is handled on the conjugated
tableau.  The even raising operator undoes that rule around the leftmost
unbracketed i+1, and the bracketing decides between locally ambiguous
preimages.  ``transport_op`` conjugates a word operator through mixed
insertion for an arbitrary recording tableau; it is the oracle the
explicit rules are checked against.  Signed variants strip the diagonal
primes, act, and restore them.  No operator checks its output against
the family: engine.component checks each vertex once (model_pt/spt).
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from qcrystal import mixed, words
from qcrystal import tableaux as tb
from qcrystal.tableaux import InvariantError, Rows


# ---------------------------------------------------------------------------
# odd operators, first row only

def e_bar1_pt(t: Rows) -> Optional[Rows]:
    """
    >>> tb.fmt_primed(e_bar1_pt(tb.parse_primed("2 2 2 / 3")))
    '1 2 2 / 3'
    >>> e_bar1_pt(tb.parse_primed("1 1 1 / 2")) is None
    True
    """
    if not t:
        return None
    row = list(t[0])
    if row[0] == tb.code(2, False):
        row[0] = tb.code(1, False)
        return (tuple(row),) + t[1:]
    for j in range(1, len(row)):
        if row[j] == tb.code(2, True):
            row[j] = tb.code(1, False)
            return (tuple(row),) + t[1:]
    return None


def f_bar1_pt(t: Rows) -> Optional[Rows]:
    """
    >>> tb.fmt_primed(f_bar1_pt(tb.parse_primed("1 2 2 / 3")))
    '2 2 2 / 3'
    >>> tb.fmt_primed(f_bar1_pt(tb.parse_primed("1 1 1 / 2")))
    "1 1 2' / 2"
    >>> f_bar1_pt(tb.parse_primed("2 2 2 / 3")) is None
    True
    """
    if not t:
        return None
    row = list(t[0])
    one = tb.code(1, False)
    spots = [j for j, v in enumerate(row) if v == one]
    if not spots:
        return None
    j = spots[-1]
    if j + 1 < len(row) and row[j + 1] == tb.code(2, True):
        return None
    row[j] = tb.code(2, False) if j == 0 else tb.code(2, True)
    return (tuple(row),) + t[1:]


# ---------------------------------------------------------------------------
# even operators: the ribbon rule and its inverse

def _ribbon_head(cells: dict[tuple[int, int], int], x: tuple[int, int],
                 i: int) -> tuple[int, int]:
    """End of the maximal south/west ribbon of letters i+1 starting at x."""
    ribbon = (tb.code(i + 1, True), tb.code(i + 1, False))
    cur = x
    while True:
        r, c = cur
        south = (r + 1, c) if cells.get((r + 1, c)) in ribbon else None
        west = (r, c - 1) if cells.get((r, c - 1)) in ribbon else None
        if south is not None and west is not None:
            raise InvariantError("ribbon forks")
        nxt = south or west
        if nxt is None:
            return cur
        cur = nxt


def _ribbon(cells: dict[tuple[int, int], int], x: tuple[int, int], i: int,
            allow_2b: bool) -> None:
    """Apply the lowering rewrite around the bold cell x, in place."""
    lo, hi = tb.code(i + 1, True), tb.code(i + 1, False)
    if cells[x] != tb.code(i, False):
        raise InvariantError("bold cell must hold plain i")
    r, c = x
    if cells.get((r, c + 1)) == lo:
        cells[x] = lo
        cells[(r, c + 1)] = hi
        return
    cur = _ribbon_head(cells, x, i)
    if cur == x:
        cells[x] = hi
    elif allow_2b and cur[0] == cur[1]:
        cells[x] = lo
    else:
        cells[x] = lo
        cells[cur] = hi


def _unribbon(cells: dict[tuple[int, int], int], y: tuple[int, int], i: int
              ) -> Iterator[tuple[dict[tuple[int, int], int], tuple[int, int]]]:
    """Local preimages of the lowering rewrite, around the bold cell y.

    Yields (changed cells, cell lowered to i) for the inverse of case A,
    of case D, and of case B, in that order.
    """
    lo, hi, low = tb.code(i + 1, True), tb.code(i + 1, False), tb.code(i, False)
    if cells[y] != hi:
        raise InvariantError("bold cell must hold plain i+1")
    r, c = y
    if cells.get((r, c - 1)) == lo:
        yield {(r, c - 1): low, y: lo}, (r, c - 1)
    # walk the ribbon back to its start: north first, east only from i+1
    cur = y
    while True:
        r, c = cur
        if cells.get((r - 1, c)) in (lo, hi):
            cur = (r - 1, c)
        elif cells[cur] == hi and cells.get((r, c + 1)) in (lo, hi):
            cur = (r, c + 1)
        else:
            break
    if cur != y and cells[cur] == lo:
        yield {cur: low, y: lo}, cur
    yield {y: low}, y


def _bold_letter(t: Rows, i: int, raising: bool = False
                 ) -> Optional[tuple[tuple[int, int], bool]]:
    """Cell and primality of the bold letter in rw(t): the rightmost
    unbracketed i, or when raising the leftmost unbracketed i+1."""
    items = tb.rw_pt_cells(t)
    values = tuple(v for v, _, _ in items)
    openers, closers = words.unbracketed(i, values)
    picks = openers[:1] if raising else closers[-1:]
    if not picks:
        return None
    _, primed, cell = items[picks[0]]
    return cell, primed


def f_even_pt(i: int, t: Rows) -> Optional[Rows]:
    """
    >>> tb.fmt_primed(f_even_pt(1, tb.parse_primed("1 1 1 / 2")))
    '1 1 2 / 2'
    >>> tb.fmt_primed(f_even_pt(2, tb.parse_primed("1 1 1 / 2")))
    '1 1 1 / 3'
    >>> f_even_pt(1, tb.parse_primed("2")) is None
    True
    """
    bold = _bold_letter(t, i)
    if bold is None:
        return None
    cell, primed = bold
    if primed:
        cells = tb.conjugate(t)
        _ribbon(cells, (cell[1], cell[0]), i, allow_2b=False)
        return tb.conjugate_inverse(cells)
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
        conj = tb.conjugate(t)
        for changes, (r, c) in _unribbon(conj, (y[1], y[0]), i):
            yield tb.conjugate_inverse({**conj, **changes}), ((c, r), True)
    else:
        cells = tb.cell_map(t)
        for changes, x in _unribbon(cells, y, i):
            yield tb.from_cells(shape, {**cells, **changes}), (x, False)


def e_even_pt(i: int, t: Rows) -> Optional[Rows]:
    """Raising operator: the ribbon rule of f_even_pt undone.

    The bold letter is the leftmost unbracketed i+1 of rw(t).  Undoing
    the ribbon rule around it can be locally ambiguous; the preimage is
    the candidate whose own bold letter for f_i is the letter that was
    lowered to i, so f_i lowers it back.

    (A) the cell west of an unprimed bold letter holds (i+1)'; that
    cell becomes i and the bold letter (i+1)':

    >>> tb.fmt_primed(e_even_pt(1, tb.parse_primed("1 2' 2")))
    "1 1 2'"

    (D) the ribbon walked back from the bold letter (north first, east
    only from an unprimed i+1) starts at (i+1)'; that start becomes i and
    the bold letter (i+1)':

    >>> tb.fmt_primed(e_even_pt(2, tb.parse_primed("1 1 3' / 2 3")))
    "1 1 2 / 2 3'"

    (B) otherwise the bold letter becomes i, also where D would apply
    but the bracketing says B:

    >>> tb.fmt_primed(e_even_pt(2, tb.parse_primed("1 1 1 3' / 2 3 3")))
    "1 1 1 3' / 2 2 3"

    (2b) a primed bold letter whose south/west ribbon ends on the main
    diagonal becomes i:

    >>> tb.fmt_primed(e_even_pt(1, tb.parse_primed("1 2' / 2")))
    '1 1 / 2'

    any other primed bold letter is undone on the conjugate tableau:

    >>> tb.fmt_primed(e_even_pt(2, tb.parse_primed("1 3' / 3")))
    "1 2' / 3"
    >>> e_even_pt(1, tb.parse_primed("1 1 1 / 2")) is None
    True
    """
    bold = _bold_letter(t, i, raising=True)
    if bold is None:
        return None
    out = next((s for s, lowered in _preimages(i, t, *bold)
                if _bold_letter(s, i) == lowered), None)
    if out is None:
        raise InvariantError(
            "inverse ribbon produced no valid tableau: no candidate")
    return out


# ---------------------------------------------------------------------------
# transport through insertion (an oracle for the explicit rules)

def transport_op(t: Rows, q: Rows,
                 word_op: Callable[[tuple[int, ...]], Optional[tuple]]
                 ) -> Optional[Rows]:
    """Conjugate a word operator by insertion with recording tableau q."""
    w = mixed.hm_inverse(t, q)
    w2 = word_op(w)
    if w2 is None:
        return None
    p2, q2 = mixed.hm(w2)
    if q2 != q:
        raise InvariantError("operator moved the recording tableau")
    return p2


# ---------------------------------------------------------------------------
# signed variants

def _signed(op: Callable[[Rows], Optional[Rows]], t: Rows) -> Optional[Rows]:
    """op on t with its diagonal primes stripped and restored.  A prime
    that op puts on the diagonal is invisible to model_spt's check."""
    plain, ptype = tb.dpr(t)
    out = op(plain)
    if out is None:
        return None
    primed = tb.prime_type(out)
    if primed:
        raise InvariantError(
            f"operator primed the diagonal entry of row {min(primed)}")
    return tb.pr(out, ptype)


def e_signed(i, t: Rows) -> Optional[Rows]:
    """Raising operator on signed primed tableaux; i is a color or "b1"."""
    if i == "b1":
        return _signed(e_bar1_pt, t)
    return _signed(lambda s: e_even_pt(i, s), t)


def f_signed(i, t: Rows) -> Optional[Rows]:
    if i == "b1":
        return _signed(f_bar1_pt, t)
    return _signed(lambda s: f_even_pt(i, s), t)


# ---------------------------------------------------------------------------
# extreme tableaux

def highest_pt(n: int, shape) -> Rows:
    """Row i filled with the letter i.

    >>> tb.fmt_primed(highest_pt(5, (5, 3, 1)))
    '1 1 1 1 1 / 2 2 2 / 3'
    """
    shape = tb.check_strict(shape, n)
    return tuple(
        (tb.code(r + 1, False),) * part for r, part in enumerate(shape)
    )


def lowest_pt(n: int, shape) -> Rows:
    """Nested border strips of the largest letters, primed where the strip
    climbs.

    >>> tb.fmt_primed(lowest_pt(5, (5, 3, 1)))
    "3 4' 4 5' 5 / 4 5' 5 / 5"
    >>> tb.fmt_primed(lowest_pt(3, (3, 1)))
    "2 3' 3 / 3"
    """
    shape = tb.check_strict(shape, n)
    cells: dict[tuple[int, int], int] = {}
    for k, strip in enumerate(tb.border_strips(shape)):
        value = n - k
        for (r, c), entered_north in strip:
            cells[(r, c)] = tb.code(value, entered_north)
    out = tb.from_cells(shape, cells)
    msg = tb.validate_pt(out, n=n)
    if msg is not None:
        raise InvariantError(msg)
    return out
