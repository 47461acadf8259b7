"""Shifted shapes and tableau families.

A tableau is stored as a tuple of row tuples; row r occupies columns
r .. r+len(row)-1 of the shifted diagram (0-based internally).  Primed
families (PT, SPT) store letters as integer codes 2k-1 for k' and 2k
for k, so the total order 1' < 1 < 2' < 2 < ... is plain integer
comparison.  Plain families (SSDT, standard, decomposition tableaux)
store their letters directly.

Human-facing text renders rows separated by " / " with entries
space-separated and primes as apostrophes: "1 2' 2 / 2 3'".  Cell
coordinates in messages and public insertion results are 1-based.

The enumerators share one fill (_fill), and SSDTs and the insertion
tableaux of kraskiewicz one decomposition-tableau check (_dt_fault).
"""

from __future__ import annotations

import functools
import itertools
from bisect import bisect_left, bisect_right
from typing import Callable, Iterable, Iterator, Optional, Sequence

Rows = tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# shapes and primed letter codes

def _int(tok: str, what: str, text: str) -> int:
    """The integer tok spells as '-'? and ASCII digits, whitespace around
    allowed, else a ValueError quoting tok and the whole text (int() alone
    would take '+', '_' and non-ASCII digits, which nothing here prints)."""
    digits = tok.strip().removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer {tok!r} in {what} {text!r}")
    return int(tok)


def parse_shape(text: str) -> tuple[int, ...]:
    """Parse "5,3,1" into the strict partition (5, 3, 1)."""
    if not text.strip():
        return ()
    parts = tuple(_int(p, "shape", text) for p in text.split(","))
    check_strict(parts)
    return parts


def strictness_violation(shape: Sequence[int]) -> Optional[str]:
    """The message for parts that do not strictly decrease, or None."""
    for a, b in zip(shape, shape[1:]):
        if a <= b:
            return f"not a strict partition: {shape}"
    return None


def check_strict(shape: Sequence[int],
                 n: Optional[int] = None) -> tuple[int, ...]:
    """shape as a tuple, checked to be a strict partition with at most n
    rows (any number if n is None)."""
    shape = tuple(shape)
    if any(p <= 0 for p in shape):
        raise ValueError(f"parts must be positive: {shape}")
    msg = strictness_violation(shape)
    if msg is not None:
        raise ValueError(msg)
    if n is not None and len(shape) > n:
        raise ValueError(f"shape {shape} has more than {n} rows")
    return shape


def shape_of(rows: Rows) -> tuple[int, ...]:
    return tuple(map(len, rows))


def strict_partitions(max_total: int) -> list[tuple[int, ...]]:
    """All strict partitions with 1 <= |shape| <= max_total, by size.

    >>> strict_partitions(3)
    [(1,), (2,), (2, 1), (3,)]
    """
    out = []

    def rec(prefix: tuple[int, ...], biggest: int, left: int):
        # parts in ascending order, so each size comes out sorted
        if not left:
            out.append(prefix)
        for part in range(1, min(biggest, left) + 1):
            rec(prefix + (part,), part - 1, left - part)

    for total in range(1, max_total + 1):
        rec((), total, total)
    return out


def shape_cells(shape: Sequence[int]) -> Iterator[tuple[int, int]]:
    """Cells of S(shape) in row-major order, 0-based."""
    for r, length in enumerate(shape):
        for c in range(r, r + length):
            yield (r, c)


def rim_depths(shape: Sequence[int]) -> Rows:
    """d(r, j) at cell (r, r + j): the number of rows r' >= r with
    shape[r'] > j.  It numbers the nested rim strips of S(shape) from 1
    at the rim, and strip k has shape[k - 1] cells.

    >>> rim_depths((5, 3, 1))
    ((3, 2, 2, 1, 1), (2, 1, 1), (1,))
    """
    return tuple(tuple(sum(p > j for p in shape[r:]) for j in range(part))
                 for r, part in enumerate(shape))


def cell_map(rows: Rows) -> dict[tuple[int, int], int]:
    """Each entry keyed by its 0-based cell; row r starts in column r.

    >>> cell_map(((1, 2), (3,)))
    {(0, 0): 1, (0, 1): 2, (1, 1): 3}
    """
    return {(r, c): v for r, row in enumerate(rows)
            for c, v in enumerate(row, r)}


def from_cells(shape: Sequence[int],
               cells: dict[tuple[int, int], int]) -> Rows:
    """The rows of S(shape) read off a cell map; inverse of cell_map."""
    return tuple(
        tuple(cells[(r, c)] for c in range(r, r + part))
        for r, part in enumerate(shape)
    )


def code(value: int, primed: bool) -> int:
    return 2 * value - 1 if primed else 2 * value


def code_value(c: int) -> int:
    return (c + 1) // 2


def code_primed(c: int) -> bool:
    return c % 2 == 1


def freeze(rows: Iterable[Sequence[int]]) -> Rows:
    return tuple(tuple(r) for r in rows)


class NotInImage(ValueError):
    """The tableau pair is not produced by the insertion (hm, kr or pkr)."""


class InvariantError(RuntimeError):
    """An internal invariant failed: a bug, not bad input.

    Raised by explicit checks rather than ``assert``, so that it survives
    ``python -O``.
    """


# ---------------------------------------------------------------------------
# text forms

PRIME_CHARS = ("'", "′")


def letter_str(c: int) -> str:
    return f"{code_value(c)}'" if code_primed(c) else str(code_value(c))


def fmt_primed(rows: Rows) -> str:
    return " / ".join(" ".join(letter_str(c) for c in row) for row in rows)


def fmt_plain(rows: Rows) -> str:
    """Rows of plain letters as text: "3 2 / 1".

    Each row's text is memoised (_plain_row), keyed on the row tuple; the
    text depends on the row alone, and the memo holds one string per
    distinct row the process has formatted.
    """
    return " / ".join(map(_plain_row, rows))


@functools.cache
def _plain_row(row: tuple[int, ...]) -> str:
    return " ".join(map(str, row))


def parse_primed(text: str) -> Rows:
    """Parse "1 2' 2 / 2 3'" (unicode primes accepted) into code rows."""
    rows = []
    text = text.strip()
    if not text:
        return ()
    for chunk in text.split("/"):
        row = []
        for tok in chunk.split():
            primed = tok[-1] in PRIME_CHARS
            try:
                row.append(code(_int(tok[:-1] if primed else tok,
                                     "tableau", text), primed))
            except ValueError:
                raise ValueError(
                    f"not a letter {tok!r} in tableau {text!r}") from None
        rows.append(tuple(row))
    return tuple(rows)


def parse_plain(text: str) -> Rows:
    text = text.strip()
    if not text:
        return ()
    return tuple(
        tuple(_int(tok, "tableau", text) for tok in chunk.split())
        for chunk in text.split("/")
    )


# ---------------------------------------------------------------------------
# hook and unimodal words

def _vee_ends(w: Sequence[int], strict_dec: bool) -> tuple[int, int]:
    """(k, m): w[:k] is w's longest decreasing prefix (strictly, or weakly
    if not strict_dec; k >= 1) and w[k - 1:m] the strictly increasing run
    after it, so w is a vee (hook or unimodal word) iff m >= len(w)."""
    slack = 0 if strict_dec else 1  # integer letters: b <= a iff b < a + 1
    m, k = len(w), 1
    while k < m and w[k] < w[k - 1] + slack:
        k += 1
    end = k
    while end < m and w[end] > w[end - 1]:
        end += 1
    return k, end


def is_hook(w: Sequence[int]) -> bool:
    """Weakly decreasing then strictly increasing; empty words rejected.

    >>> is_hook((3, 2, 1, 2)), is_hook((3, 2, 2)), is_hook((1, 2, 2))
    (True, True, False)
    """
    if not w:
        raise ValueError("is_hook of an empty word")
    return _vee_ends(w, False)[1] == len(w)


def unimodal_split(w: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split off the maximal strictly decreasing prefix (owns the minimum).

    >>> unimodal_split((2, 0, 1, 3))
    ((2, 0), (1, 3))
    """
    w = tuple(w)
    k = _vee_ends(w, True)[0]
    return w[:k], w[k:]


def is_unimodal(w: Sequence[int]) -> bool:
    """Strictly decreasing then strictly increasing; empty words allowed.

    >>> is_unimodal((2, 0, 1, 3))
    True
    >>> is_unimodal((1, 1))
    False
    """
    return _vee_ends(w, True)[1] >= len(w)


def longest_hook_subword_len(w: Sequence[int]) -> int:
    """Length of the longest (not necessarily contiguous) hook subword."""
    return _longest_vee_len(w, strict_dec=False)


def longest_unimodal_subword_len(w: Sequence[int]) -> int:
    """Length of the longest subword that is a unimodal word."""
    return _longest_vee_len(w, strict_dec=True)


def _longest_vee_len(w: Sequence[int], strict_dec: bool) -> int:
    # The best vee with its valley at p joins the longest (weakly or
    # strictly) decreasing subword ending at p to the longest strictly
    # increasing one starting there, sharing w[p].  Both are patience
    # sorts on the negated letters, where decreasing becomes increasing:
    # tails[k] is the least last letter of a run of k + 1 letters so far,
    # and a letter x extends the longest run whose tail is below x
    # (bisect_left, strict runs) or at most x (bisect_right, weak ones).
    # The second pass reads w right to left, where a strictly increasing
    # run starting at p is a strictly decreasing one ending at p.  dec[p]
    # and k count the letters of each run beyond w[p].
    cut = bisect_left if strict_dec else bisect_right
    tails: list[int] = []
    dec = []
    for a in w:
        k = cut(tails, -a)
        if k == len(tails):
            tails.append(-a)
        else:
            tails[k] = -a
        dec.append(k)
    tails = []
    best = 0
    for p in range(len(w) - 1, -1, -1):
        a = w[p]
        k = bisect_left(tails, -a)
        if k == len(tails):
            tails.append(-a)
        else:
            tails[k] = -a
        if dec[p] + k + 1 > best:
            best = dec[p] + k + 1
    return best


# ---------------------------------------------------------------------------
# family validators

def _shape_ok(rows: Rows) -> Optional[str]:
    shape = shape_of(rows)
    if 0 in shape:
        return f"empty row in shape {shape}"
    return strictness_violation(shape)


def _columns(rows: Rows) -> list[list[int]]:
    """Entries of each column of a strict shifted shape, top to bottom."""
    cols: list[list[int]] = [[] for _ in (rows[0] if rows else ())]
    for r, row in enumerate(rows):
        for c, v in enumerate(row, r):
            cols[c].append(v)
    return cols


def validate_pt(rows: Rows, n: Optional[int] = None,
                diagonal_unprimed: bool = True) -> Optional[str]:
    """First violation of the primed tableau rules, or None if valid.

    With diagonal_unprimed=False this validates signed primed tableaux.
    """
    msg = _shape_ok(rows)
    if msg:
        return msg
    top = 2 * n if n is not None else None
    for r, row in enumerate(rows):
        if min(row) < 1 or (top is not None and max(row) > top):
            j, c = next((j, c) for j, c in enumerate(row)
                        if c < 1 or (top is not None and c > top))
            return f"entry {letter_str(c)} at {(r + 1, r + j + 1)} out of range"
    # codes are primed iff odd, and a primed (unprimed) letter repeats iff
    # its code does; in a weakly increasing line that is an equal pair of
    # neighbours
    for r, row in enumerate(rows):
        if diagonal_unprimed and row[0] % 2:
            return f"primed diagonal entry {letter_str(row[0])} in row {r + 1}"
        repeat = False
        for a, b in zip(row, row[1:]):
            if a > b:
                return f"row {r + 1} not weakly increasing"
            repeat = repeat or (a == b and a % 2)
        if repeat:
            return f"row {r + 1} repeats a primed letter"
    # vertical neighbours: rows[r][j + 1] sits above rows[r + 1][j], in
    # column r + j + 2; the lowest failing column is reported, a descent
    # in it before a repeat
    worst = None
    for r in range(len(rows) - 1):
        for j, (a, b) in enumerate(zip(rows[r][1:], rows[r + 1])):
            if a > b or (a == b and not a % 2):
                if worst is None or (r + j + 2, a <= b) < worst:
                    worst = (r + j + 2, a <= b)
                break
    if worst is None:
        return None
    col, repeat = worst
    if repeat:
        return f"column {col} repeats an unprimed letter"
    return f"column {col} not weakly increasing"


def validate_st(rows: Rows) -> Optional[str]:
    """Standard shifted tableau: entries exactly 1..N, strictly increasing."""
    msg = _shape_ok(rows)
    if msg:
        return msg
    entries = sorted(v for row in rows for v in row)
    if entries != list(range(1, len(entries) + 1)):
        return f"entries are not 1..{len(entries)}"
    # the entries are distinct, so sorted means strictly increasing
    for r, row in enumerate(rows):
        if list(row) != sorted(row):
            return f"row {r + 1} not strictly increasing"
    for c, col in enumerate(_columns(rows)):
        if col != sorted(col):
            return f"column {c + 1} not strictly increasing"
    return None


def validate_ssdt(rows: Rows, n: Optional[int] = None) -> Optional[str]:
    """Semistandard decomposition tableau: hook rows over 1..n, each of
    maximal hook-subword length within (next row)(this row)."""
    return _dt_fault(rows, 1, n, strict_dec=False)


def _dt_fault(rows: Rows, lo: int, hi: Optional[int],
              strict_dec: bool) -> Optional[str]:
    """First fault of a decomposition tableau over lo..hi (any letters if
    hi is None), or None: its rows are vees, decreasing (strictly if
    strict_dec) then strictly increasing, each of maximal vee-subword
    length within (next row)(this row).  SSDTs are the weak case over
    1..n, kraskiewicz.validate_sdt the strict one over 0..n-1.

    Checks the shape, each row top-down (letters, then vee), then each
    pair of rows top-down.  Row and pair checks are memoised on the rows,
    as tuples, and the family (_dt_row_fault, _dt_pair_ok): one entry per
    distinct row and pair the process has checked."""
    shape = shape_of(rows)
    if 0 in shape:
        return "empty row" if strict_dec else f"empty row in shape {shape}"
    msg = strictness_violation(shape)
    if msg:
        return msg
    for r, row in enumerate(rows):
        fault = _dt_row_fault(tuple(row), lo, hi, strict_dec)
        if fault:
            return f"row {r + 1} {fault}"
    for r in range(len(rows) - 1):
        if not _dt_pair_ok(tuple(rows[r]), tuple(rows[r + 1]), strict_dec):
            return (f"row {r + 1} is not a maximal "
                    f"{'unimodal' if strict_dec else 'hook'} subword in rows "
                    f"{r + 2},{r + 1}")
    return None


@functools.cache
def _dt_row_fault(row: tuple[int, ...], lo: int, hi: Optional[int],
                  strict_dec: bool) -> Optional[str]:
    """What makes one nonempty row unfit for _dt_fault's family, or None;
    the caller prefixes the row's number."""
    if hi is not None and (min(row) < lo or max(row) > hi):
        return f"letter out of range {lo}..{hi}"
    if _vee_ends(row, strict_dec)[1] < len(row):
        return "is not unimodal" if strict_dec else "is not a hook word"
    return None


@functools.cache
def _dt_pair_ok(upper: tuple[int, ...], lower: tuple[int, ...],
                strict_dec: bool) -> bool:
    """The maximality condition coupling two consecutive rows."""
    return _longest_vee_len(lower + upper, strict_dec) == len(upper)


# ---------------------------------------------------------------------------
# reading words

def rw_ssdt(rows: Rows) -> tuple[int, ...]:
    """Rows read right to left, top row first.

    >>> rw_ssdt(((3, 2, 2), (2,)))
    (2, 2, 3, 2)
    """
    out = []
    for row in rows:
        out.extend(reversed(row))
    return tuple(out)


def ssdt_weight(rows: Rows, n: int) -> tuple[int, ...]:
    wt = [0] * n
    for row in rows:
        for v in row:
            wt[v - 1] += 1
    return tuple(wt)


def pt_weight(rows: Rows, n: int) -> tuple[int, ...]:
    wt = [0] * n
    for row in rows:
        for c in row:
            wt[code_value(c) - 1] += 1
    return tuple(wt)


# ---------------------------------------------------------------------------
# diagonal primes

def prime_type(rows: Rows) -> frozenset[int]:
    """1-based indexes i whose diagonal entry (i,i) is primed.

    >>> sorted(prime_type(parse_primed("1' 1 / 2")))
    [1]
    """
    return frozenset(
        r + 1 for r, row in enumerate(rows) if code_primed(row[0])
    )


def dpr(rows: Rows) -> tuple[Rows, frozenset[int]]:
    """Strip diagonal primes, remembering where they were."""
    ptype = prime_type(rows)
    out = []
    for r, row in enumerate(rows):
        if r + 1 in ptype:
            out.append((row[0] + 1,) + row[1:])
        else:
            out.append(row)
    return tuple(out), ptype


def pr(rows: Rows, ptype: Iterable[int]) -> Rows:
    """Re-prime the diagonal entries listed in ptype (1-based)."""
    ptype = frozenset(ptype)
    if any(i < 1 or i > len(rows) for i in ptype):
        raise ValueError(f"prime type {sorted(ptype)} outside shape {shape_of(rows)}")
    out = []
    for r, row in enumerate(rows):
        if r + 1 in ptype:
            if code_primed(row[0]):
                raise ValueError(f"diagonal entry in row {r + 1} already primed")
            out.append((row[0] - 1,) + row[1:])
        else:
            out.append(row)
    return tuple(out)


# ---------------------------------------------------------------------------
# enumeration

def _fill(size: int, choices: Callable[[int, list], Iterable]
          ) -> Iterator[list]:
    """Every filling of slots 0..size-1, slot k taking each value of
    choices(k, filled) in turn, where filled[:k] holds the earlier slots'
    values: a depth-first search, so fillings come in the lexicographic
    order of the choices.  It keeps an explicit stack, one iterator per
    filled slot, so a long fill needs no stack frame per slot.  Each
    filling is the same list, to be read before the next is asked for.
    """
    filled: list = [None] * size
    if not size:
        yield filled
        return
    stack = [iter(choices(0, filled))]
    while stack:
        v = next(stack[-1], None)
        if v is None:
            stack.pop()
            continue
        k = len(stack)
        filled[k - 1] = v
        if k == size:
            yield filled
        else:
            stack.append(iter(choices(k, filled)))


def enumerate_st(shape: Sequence[int]) -> list[Rows]:
    """All standard shifted tableaux of the given strict shape, sorted.

    The fill places the values 1..N in turn, value k + 1 at the end of
    row filled[k], into a cell that is ready: in the shape, with the cell
    above it filled.
    """
    shape = check_strict(shape)

    def ready(k: int, filled: list) -> list[int]:
        done = filled[:k]
        counts = [done.count(r) for r in range(len(shape))]
        # row r's next cell lies under row r - 1's cell counts[r] + 1
        return [r for r, part in enumerate(shape) if counts[r] < part
                and (r == 0 or counts[r - 1] > counts[r] + 1)]

    return sorted(tuple(tuple(v for v, r in enumerate(filled, 1) if r == row)
                        for row in range(len(shape)))
                  for filled in _fill(sum(shape), ready))


def enumerate_pt(n: int, shape: Sequence[int],
                 diagonal_unprimed: bool = True) -> list[Rows]:
    """All primed tableaux (or signed ones) of a shape over 1'..n.

    The fill takes the cells row-major, each a code from max(west, north)
    up, so rows and columns weakly increase and a repeated letter sits
    next to its twin: a primed code may not equal its west neighbour (nor
    sit on the diagonal, with diagonal_unprimed), an unprimed one its
    north neighbour.
    """
    shape = check_strict(shape)
    cells = list(shape_cells(shape))
    slot = {cell: k for k, cell in enumerate(cells)}
    near = [(slot.get((r, c - 1)), slot.get((r - 1, c)),
             diagonal_unprimed and r == c) for r, c in cells]

    def codes(k: int, filled: list) -> list[int]:
        west_at, north_at, diagonal = near[k]
        west = 0 if west_at is None else filled[west_at]
        north = 0 if north_at is None else filled[north_at]
        return [v for v in range(max(west, north, 1), 2 * n + 1)
                if (v != west and not diagonal if v % 2 else v != north)]

    ends = list(itertools.accumulate(shape))
    return [tuple(tuple(filled[e - part:e]) for part, e in zip(shape, ends))
            for filled in _fill(len(cells), codes)]


def enumerate_ssdt(n: int, shape: Sequence[int]) -> list[Rows]:
    """All semistandard decomposition tableaux of a shape over 1..n.

    The fill takes the rows top-down, each a hook that passes the pair
    check with the row above.  The hooks of each length come from the
    fill too, letter by letter: weakly decreasing up to the first rise,
    then strictly increasing, and a rise only where the letters after it
    can still climb by one each without passing n.
    """
    shape = check_strict(shape)

    def hooks(length: int) -> list[tuple[int, ...]]:
        def letters(j: int, w: list) -> range:
            room = n - (length - 1 - j)  # the highest letter a rise may take
            if j >= 2 and w[j - 2] < w[j - 1]:  # past the first rise
                return range(w[j - 1] + 1, room + 1)
            return range(1, max(w[j - 1] if j else n, room) + 1)
        return [tuple(w) for w in _fill(length, letters)]

    layers = [hooks(length) for length in shape]

    def rows(r: int, filled: list) -> list[tuple[int, ...]]:
        return [row for row in layers[r]
                if r == 0 or _dt_pair_ok(filled[r - 1], row, False)]

    return [tuple(filled) for filled in _fill(len(shape), rows)]
