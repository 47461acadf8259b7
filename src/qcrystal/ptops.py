"""Crystal operators on primed tableaux.

The odd pair acts on the first row by explicit rules.  The even
operators of color i read and write only the strip of t: its cells
holding i', i, (i+1)' or i+1 (``f_even_pt`` gives their order).  The
lowering operator follows the ribbon procedure: locate the bold letter
by bracketing the strip, then either trade a prime with the entry to
the east or walk the maximal south/west ribbon of letters i+1 and
reshape its head; a primed bold letter is handled on the reflected
strip.  The raising operator undoes that rule around the leftmost
unbracketed i+1, and the bracketing decides between locally ambiguous
preimages.  ``arrows_pt`` gives f_i and e_i of every color at once:
t's cells are put in reading order once, and each strip is bracketed
once for both operators; ``f_even_pt``/``e_even_pt`` run the same rules
(``_lower``/``_raise``) for one color.  ``transport_op`` conjugates a
word operator through mixed insertion for an arbitrary recording
tableau; it is the oracle the explicit rules are checked against.
Signed variants strip the diagonal primes, act, and restore them
(``arrows_signed`` once per row).  No operator checks its output against
the family: engine.component checks each vertex once (model_pt/spt).
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from qcrystal import mixed
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
        return (tuple(row),) + tb.freeze(t[1:])
    for j in range(1, len(row)):
        if row[j] == tb.code(2, True):
            row[j] = tb.code(1, False)
            return (tuple(row),) + tb.freeze(t[1:])
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
    return (tuple(row),) + tb.freeze(t[1:])


# ---------------------------------------------------------------------------
# even operators: the ribbon rule and its inverse
#
# The ribbon rewrites read and write only codes of i and i+1 and treat any
# other cell as absent, so they run on the strip of color i (_strip).

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


def _rw_key(item: tuple[tuple[int, int], int]) -> tuple[int, int, int]:
    """Sort key of a (cell, code) item by its place in rw (f_even_pt)."""
    (r, c), v = item
    return (0, -c, r) if v % 2 else (1, -r, c)


def _rw_cells(t: Rows) -> list[tuple[tuple[int, int], int]]:
    """Every (cell, code) item of t, in rw(t) order."""
    return sorted((((r, c), v) for r, row in enumerate(t)
                   for c, v in enumerate(row, r)), key=_rw_key)


def _strip(cells, i: int) -> dict[tuple[int, int], int]:
    """The items of cells (in rw order) holding i', i, (i+1)' or i+1."""
    lo, hi = 2 * i - 1, 2 * i + 2
    return {cell: v for cell, v in cells if lo <= v <= hi}


def _bold(items, i: int) -> tuple[Optional[tuple[int, int]],
                                  Optional[tuple[int, int]]]:
    """The bold letters among the (cell, code) items of a strip in rw
    order, from one bracketing: the cell of the rightmost unbracketed i
    (f_i's) and of the leftmost unbracketed i+1 (e_i's), or None."""
    openers: list[tuple[int, int]] = []
    closer = None
    for cell, v in items:
        if v > 2 * i:
            openers.append(cell)
        elif openers:
            openers.pop()
        else:
            closer = cell
    return closer, openers[0] if openers else None


def _reflect(cells: dict[tuple[int, int], int], shift: int
             ) -> dict[tuple[int, int], int]:
    """Cells reflected over the main diagonal, each code moved by shift:
    +1 turns k' into k and k into (k+1)' (the conjugate frame), -1 back."""
    return {(c, r): v + shift for (r, c), v in cells.items()}


def _write(t: Rows, cells: dict[tuple[int, int], int]) -> Rows:
    """t with the given cells rewritten; only the rows that change are
    rebuilt (tuple(row), the identity on tuples, keeps the others)."""
    rows = list(map(tuple, t))
    for (r, c), v in cells.items():
        row = rows[r]
        if row[c - r] != v:
            rows[r] = row[:c - r] + (v,) + row[c - r + 1:]
    return tuple(rows)


def _lower(t: Rows, i: int, strip: dict[tuple[int, int], int],
           x: Optional[tuple[int, int]]) -> Optional[Rows]:
    """f_i(t): the ribbon rule around the bold cell x of the strip."""
    if x is None:
        return None
    if strip[x] % 2:
        conj = _reflect(strip, 1)
        _ribbon(conj, x[::-1], i, allow_2b=False)
        return _write(t, _reflect(conj, -1))
    cells = dict(strip)  # _ribbon rewrites in place; _raise reads strip
    _ribbon(cells, x, i, allow_2b=True)
    return _write(t, cells)


def _raise(t: Rows, i: int, strip: dict[tuple[int, int], int],
           y: Optional[tuple[int, int]]) -> Optional[Rows]:
    """e_i(t): the candidate preimage around the bold cell y whose own
    bold letter for f_i is the letter it lowered to i (e_even_pt)."""
    if y is None:
        return None
    for changes, lowered in _preimages(i, strip, y):
        # at most two cells changed primality, so re-sort into rw order
        if _bold(sorted({**strip, **changes}.items(), key=_rw_key),
                 i)[0] == lowered:
            return _write(t, changes)
    raise InvariantError(
        "inverse ribbon produced no valid tableau: no candidate")


def arrows_pt(t: Rows, n: int) -> tuple[Optional[Rows], ...]:
    """f_1(t), e_1(t), ..., f_{n-1}(t), e_{n-1}(t), None where undefined.

    t's cells are put in rw order once; each color's strip is filtered
    from them and bracketed once, and f_i and e_i each apply their own
    rule (f_even_pt, e_even_pt) around their bold letter.

    >>> [x and tb.fmt_primed(x) for x in arrows_pt(tb.parse_primed("1 2"), 3)]
    ['2 2', '1 1', '1 3', None]
    """
    cells = _rw_cells(t)
    row: list[Optional[Rows]] = []
    for i in range(1, n):
        strip = _strip(cells, i)
        x, y = _bold(strip.items(), i)
        row += _lower(t, i, strip, x), _raise(t, i, strip, y)
    return tuple(row)


def f_even_pt(i: int, t: Rows) -> Optional[Rows]:
    """Lowering operator: the ribbon rule around the bold letter, the
    rightmost unbracketed i of rw(t).

    The strip of color i is read in rw(t) order: primed letters down the
    columns, rightmost column first, then unprimed letters along the
    rows, bottom row first.  A primed bold letter is handled on the
    strip reflected over the main diagonal.

    >>> tb.fmt_primed(f_even_pt(1, tb.parse_primed("1 1 1 / 2")))
    '1 1 2 / 2'
    >>> tb.fmt_primed(f_even_pt(2, tb.parse_primed("1 1 1 / 2")))
    '1 1 1 / 3'
    >>> f_even_pt(1, tb.parse_primed("2")) is None
    True
    """
    strip = _strip(_rw_cells(t), i)
    return _lower(t, i, strip, _bold(strip.items(), i)[0])


def _preimages(i: int, strip: dict[tuple[int, int], int], y: tuple[int, int]
               ) -> Iterator[tuple[dict[tuple[int, int], int],
                                   tuple[int, int]]]:
    """Candidates for e_i with bold letter at y, in rule order, each as
    (changed cells, cell it lowered to i)."""
    if not strip[y] % 2:
        yield from _unribbon(strip, y, i)
        return
    head = _ribbon_head(strip, y, i)
    if head != y and head[0] == head[1]:
        yield {y: tb.code(i, False)}, y
    for changes, x in _unribbon(_reflect(strip, 1), y[::-1], i):
        yield _reflect(changes, -1), x[::-1]


def e_even_pt(i: int, t: Rows) -> Optional[Rows]:
    """Raising operator: the ribbon rule of f_even_pt undone.

    The bold letter is the leftmost unbracketed i+1 of rw(t), read off
    the strip of color i (see f_even_pt).  Undoing the ribbon rule around
    it can be locally ambiguous; the preimage is the candidate whose own
    bold letter for f_i is the letter that was lowered to i, so f_i
    lowers it back.  Each candidate is a strip; only the answer is
    written into t.

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

    any other primed bold letter is undone on the reflected strip:

    >>> tb.fmt_primed(e_even_pt(2, tb.parse_primed("1 3' / 3")))
    "1 2' / 3"
    >>> e_even_pt(1, tb.parse_primed("1 1 1 / 2")) is None
    True
    """
    strip = _strip(_rw_cells(t), i)
    return _raise(t, i, strip, _bold(strip.items(), i)[1])


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

def _reprime(out: Optional[Rows], ptype: frozenset[int]) -> Optional[Rows]:
    """out with the diagonal primes ptype restored; None stays None.  A
    prime that the operator put on the diagonal would be invisible to
    model_spt's check, so it is an InvariantError."""
    if out is None:
        return None
    primed = tb.prime_type(out)
    if primed:
        raise InvariantError(
            f"operator primed the diagonal entry of row {min(primed)}")
    return tb.pr(out, ptype)


def _signed(op: Callable[[Rows], Optional[Rows]], t: Rows) -> Optional[Rows]:
    """op on t with its diagonal primes stripped and restored."""
    plain, ptype = tb.dpr(t)
    return _reprime(op(plain), ptype)


def arrows_signed(t: Rows, m: int) -> tuple[Optional[Rows], ...]:
    """arrows_pt on signed primed tableaux: t's diagonal primes are
    stripped once and restored on each target."""
    plain, ptype = tb.dpr(t)
    return tuple(_reprime(out, ptype) for out in arrows_pt(plain, m))


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
    """Cell (r, r + j) holds n + 1 - d(r, j), with d = tb.rim_depths(shape),
    primed exactly when the cell below it, (r + 1, r + j), has the same d:
    the nested rim strips of the largest letters, primed where a strip
    climbs.

    >>> tb.fmt_primed(lowest_pt(5, (5, 3, 1)))
    "3 4' 4 5' 5 / 4 5' 5 / 5"
    >>> tb.fmt_primed(lowest_pt(3, (3, 1)))
    "2 3' 3 / 3"
    """
    shape = tb.check_strict(shape, n)
    d = tb.rim_depths(shape)
    out = tuple(
        tuple(tb.code(n + 1 - x, 0 < j <= len(below) and below[j - 1] == x)
              for j, x in enumerate(row))
        for row, below in zip(d, d[1:] + ((),))
    )
    msg = tb.validate_pt(out, n=n)
    if msg is not None:
        raise InvariantError(msg)
    return out
