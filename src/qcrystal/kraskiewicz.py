"""Insertion for reduced words of signed permutations.

A letter entering a row either extends it to a longer unimodal word or
bumps through it: the smallest entry of the increasing part that is not
smaller replaces (or, on equality, increments), then the result bumps
the decreasing part symmetrically, and the leftover letter falls to the
next row.  A letter 0 meeting a row containing the pattern 1 0 1
passes through unchanged.  The insertion tableau has unimodal rows
(standard decomposition tableau).

The primed insertion pkr records whole factors of a signed unimodal
factorization: the boxes created by one factor form a vee, whose
vertical arm is primed and whose bottom box carries the factor's sign.
Plain insertion kr is pkr on one-letter factors signed +, whose
recording tableau is 2Q for a standard tableau Q.

pkr has the one letter-by-letter loop (_insert_word, then _record for
T) and pkr_fibre the one reverse walk, which undoes each bump chain row
by row.  pkr validates its final P and T once, not each intermediate P:
that is the insertion of a prefix, which verify inserts as a word of its
own.  A row step keeps the product (R·a = b·R' in B_n), so the row and
the letter entering it are a factor of a reduced word; of the local
undoings of a row (split it into a strictly decreasing and a strictly
increasing part, invert the bumps) at most one is unimodal and keeps
R·a reduced, so reducedness picks the undoing and no row step runs
forward to check it: re-inserting the whole word confirms the walk.
The pairs with one P form a copy of the signed primed tableau crystal
on T, so pkr_fibre(P, m) checks P once and inverts every T of that
fibre; pkr_inverse is one call of it.

Words are int tuples and factorizations tuples of (sign, letters); their
text forms are parsed and printed only by ``typeb``.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional, Sequence

from qcrystal import tableaux as tb
from qcrystal import typeb
from qcrystal.tableaux import InvariantError, NotInImage, Rows


class InsertionError(ValueError):
    """The bump chain died; the input word was not reduced."""


# ---------------------------------------------------------------------------
# decomposition tableaux

def rw_sdt(rows: Rows) -> tuple[int, ...]:
    """Reading word: bottom row first, each row left to right, which is
    tableaux.rw_ssdt reversed."""
    return tb.rw_ssdt(rows)[::-1]


def validate_sdt(rows: Rows, n: Optional[int] = None) -> Optional[str]:
    """First violation of the standard decomposition tableau rules: the
    strict case of tableaux._dt_fault, with unimodal rows over 0..n-1,
    then a reduced reading word."""
    msg = tb._dt_fault(rows, 0, None if n is None else n - 1,
                       strict_dec=True)
    if msg is None and not typeb.is_reduced(rw_sdt(rows)):
        return "reading word is not reduced"
    return msg


# ---------------------------------------------------------------------------
# forward insertion

def _has_101(row) -> bool:
    state = 0  # letters of the pattern 1 0 1 matched so far
    for a in row:
        if state == 0 and a == 1:
            state = 1
        elif state == 1 and a == 0:
            state = 2
        elif state == 2 and a == 1:
            return True
    return False


def _row_step(row: tuple[int, ...], a: int):
    """Insert a into one row: ("append", row) or ("cont", row, out)."""
    if tb.is_unimodal(row + (a,)):
        return ("append", row + (a,))
    if a == 0 and _has_101(row):
        return ("cont", row, 0)
    dec, inc = tb.unimodal_split(row)
    j = bisect_left(inc, a)
    if j == len(inc):
        raise InsertionError(f"letter {a} exceeds the increasing part {inc}")
    b = inc[j]
    if b != a:
        inc = inc[:j] + (a,) + inc[j + 1:]
        c = b
    else:
        c = a + 1
    pos = next((k for k, d in enumerate(dec) if d <= c), None)
    if pos is None:
        raise InsertionError(f"letter {c} is below the decreasing part {dec}")
    d = dec[pos]
    if d != c:
        dec = dec[:pos] + (c,) + dec[pos + 1:]
        out = d
    else:
        out = c - 1
    return ("cont", dec + inc, out)


def _insert(rows: Rows, a: int) -> tuple[Rows, tuple[int, int]]:
    work = list(rows)
    r = 0
    while True:
        if r == len(work):
            work.append((a,))
            cell = (r, r)
            break
        step = _row_step(work[r], a)
        if step[0] == "append":
            work[r] = step[1]
            cell = (r, r + len(step[1]) - 1)
            break
        work[r], a = step[1], step[2]
        r += 1
    return tuple(work), cell


# ---------------------------------------------------------------------------
# reverse insertion

def _row_candidates(row: tuple[int, ...], out: int):
    """Possible (previous row, inserted letter) pairs for one reverse step."""
    cands = set()
    if out == 0 and _has_101(row):
        cands.add((row, 0))
    # the splits k with row[:k] strictly decreasing and row[k:] strictly
    # increasing
    m = len(row)
    first = m - 1
    while first > 0 and row[first - 1] < row[first]:
        first -= 1
    last = 1
    while last < m and row[last] < row[last - 1]:
        last += 1
    for k in range(max(first, 1), min(last, m) + 1):
        dstar, istar = row[:k], row[k:]
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


def _unbump(rows: Rows, r: int, c: int):
    """Undo the chain that appended the cell (r, c): (rows', a), or None.

    Each row takes the one unimodal candidate (row, b) that keeps
    row + (b,) reduced.  A row step alone is not injective -- inserting
    1 into (0, 1) and into (0, 2) both leave the row (2, 1) and pass 0
    down -- but of 0 1 1 and 0 2 1 only the second is reduced, and no
    row keeps more than one reduced undoing.  No row step runs forward
    here: the caller re-inserts the whole word it undid.
    """
    if not (0 <= r < len(rows)
            and c == r + len(rows[r]) - 1
            and (r == len(rows) - 1
                 or len(rows[r]) - 1 > len(rows[r + 1]))):
        return None
    work = list(rows)
    a = work[r][-1]
    if len(work[r]) == 1:
        work.pop()
    else:
        work[r] = work[r][:-1]
    for j in range(r - 1, -1, -1):
        found = [(row, b) for row, b in sorted(_row_candidates(work[j], a))
                 if tb.is_unimodal(row) and typeb.is_reduced(row + (b,))]
        if len(found) > 1:
            raise InvariantError(f"insertion not injective: {found}")
        if not found:
            return None
        (work[j], a), = found
    return tuple(work), a


# ---------------------------------------------------------------------------
# vees

def vee_bottom_cells(cells) -> Optional[int]:
    """1-based index of the corner of a vee of cells, or None.

    The rows must rise strictly up to the bottom cell and then fall
    weakly; the columns fall weakly and then rise strictly.  So the
    corner may be any index from the start of the longest suffix that
    obeys the second half to the end of the longest prefix that obeys the
    first half; more than one candidate is an InvariantError.
    """
    m = len(cells)
    if not m:
        return None
    hi = 0
    while (hi + 1 < m and cells[hi][0] < cells[hi + 1][0]
           and cells[hi][1] >= cells[hi + 1][1]):
        hi += 1
    lo = m - 1
    while (lo > 0 and cells[lo - 1][0] >= cells[lo][0]
           and cells[lo - 1][1] < cells[lo][1]):
        lo -= 1
    if lo > hi:
        return None
    if lo != hi:
        raise InvariantError(
            f"ambiguous vee corner: {list(range(lo + 1, hi + 2))}")
    return lo + 1


def vee_bottom(q: Rows, i: int, j: int) -> Optional[int]:
    """Corner index of the cells of entries i..j of a standard tableau."""
    where = {}
    for r, c in tb.shape_cells(tb.shape_of(q)):
        where[q[r][c - r]] = (r, c)
    cells = [where[k] for k in range(i, j + 1)]
    return vee_bottom_cells(cells)


# ---------------------------------------------------------------------------
# primed insertion of signed unimodal factorizations

def pkr(fact) -> tuple[Rows, Rows]:
    """Insert a factorization; records factor numbers, primed on the
    vertical arm of each factor's vee and signed at the corner."""
    rows, t = _pkr(fact)
    msg = validate_sdt(rows)
    if msg is not None:
        raise InvariantError(f"insertion produced an invalid tableau: {msg}")
    msg = tb.validate_pt(t, diagonal_unprimed=False)
    if msg is not None:
        raise InvariantError(f"recording tableau invalid: {msg}")
    return rows, t


def _pkr(fact) -> tuple[Rows, Rows]:
    """pkr without its checks of the final P and T."""
    fact = typeb.check_factorization(fact)
    word = typeb.fact_word(fact)
    if not typeb.is_reduced(word):
        raise ValueError("factor concatenation is not a reduced word")
    rows, boxes = _insert_word(word)
    return rows, _record(boxes, fact)


def _insert_word(word) -> tuple[Rows, list[tuple[int, int]]]:
    """The letter loop of pkr: P of word, and the cell each letter added."""
    rows: Rows = ()
    boxes = []
    for a in word:
        rows, cell = _insert(rows, a)
        boxes.append(cell)
    return rows, boxes


def _record(boxes, fact) -> Rows:
    """T of fact, given the cells its letters added in turn (_insert_word)."""
    t_cells: dict[tuple[int, int], int] = {}
    end = 0
    for fi, (sign, letters) in enumerate(fact, start=1):
        cells = boxes[end:end + len(letters)]
        end += len(letters)
        if not cells:
            continue
        k = vee_bottom_cells(cells)
        if k is None:
            raise InvariantError(
                f"factor {fi} boxes do not form a vee: {cells}")
        for idx, cell in enumerate(cells, start=1):
            t_cells[cell] = tb.code(fi, idx < k or (idx == k and sign < 0))
    shape = [0] * len({r for r, _ in boxes})
    for r, _ in boxes:
        shape[r] += 1
    return tb.from_cells(shape, t_cells)


def pkr_fibre(p: Rows, m: int):
    """The inverse of pkr on the pairs (p, T) with m factors: a function
    sending T to the factorization inserting to (p, T).

    p is checked once, here.  T's entries give the order its cells are
    undone in, the reverse of the order pkr made them: factor by factor,
    the primed cells (the vertical arm) down the rows, then the unprimed
    ones (the horizontal arm) along the columns, so one sort of the cells
    gives it.  The corner, the factor's lowest cell and the leftmost on a
    tie, gives only the factor's sign.  Each removal order is walked back
    once per call of pkr_fibre, and its word re-inserted once, which must
    give p; each T then only cuts that word into signed factors and
    records them, which must give T back.
    """
    p = tb.freeze(p)  # compared with the tuple rows insertion rebuilds
    msg = validate_sdt(p)
    if msg is not None:
        raise NotInImage(f"insertion tableau invalid: {msg}")
    shape = tb.shape_of(p)
    walks: dict = {}  # removal order -> (word, its boxes), or None

    def walk(order):
        rows, letters = p, []
        for r, c in order:
            undone = _unbump(rows, r, c)
            if undone is None:
                return None
            rows, a = undone
            letters.append(a)
        word = tuple(reversed(letters))
        try:
            if typeb.is_reduced(word):
                back, boxes = _insert_word(word)
                if back == p:
                    return word, boxes
        except ValueError:
            pass
        return None

    def inverse(t: Rows):
        t = tb.freeze(t)
        msg = tb.validate_pt(t, diagonal_unprimed=False)
        if msg is not None:
            raise NotInImage(f"recording tableau invalid: {msg}")
        if tb.shape_of(t) != shape:
            raise NotInImage("shapes differ")
        values = [tb.code_value(v) for row in t for v in row]
        if values and max(values) > m:
            raise NotInImage(f"factor number {max(values)} exceeds m={m}")
        t_cells = tb.cell_map(t)
        # pkr made each factor's primed cells (code 2fi - 1) down the rows,
        # then its unprimed cells (code 2fi) along the columns
        made = sorted(t_cells, key=lambda rc: (
            t_cells[rc], rc[0] if tb.code_primed(t_cells[rc]) else rc[1]))
        order = tuple(reversed(made))
        if order not in walks:
            walks[order] = walk(order)
        if walks[order] is not None:
            word, boxes = walks[order]
            # a factor's sign is its corner's: read down the rows, each
            # right to left, its lowest cell (leftmost on a tie) comes last
            sign = {tb.code_value(v): -1 if tb.code_primed(v) else 1
                    for row in t for v in reversed(row)}
            factor = [tb.code_value(t_cells[cell]) for cell in made]
            fact = tuple(
                (sign.get(fi, 0),
                 tuple(a for a, f in zip(word, factor) if f == fi))
                for fi in range(1, m + 1))
            try:
                typeb.check_factorization(fact)
                if _record(boxes, fact) == t:
                    return fact
            except ValueError:
                pass
        raise NotInImage("no factorization inserts to the pair")

    return inverse


def pkr_inverse(p: Rows, t: Rows, m: int):
    """The m-factor signed factorization inserting to (p, t)."""
    return pkr_fibre(p, m)(t)


# ---------------------------------------------------------------------------
# plain insertion of reduced words

def kr(word: Sequence[int]) -> tuple[Rows, Rows]:
    """Insertion and recording tableaux of a reduced word.

    This is pkr on one-letter factors signed +: each letter's box is its
    own vee corner, unprimed, so pkr records the standard tableau Q
    coded as 2Q.

    >>> p, q = kr((0,))
    >>> p, q
    (((0,),), ((1,),))
    """
    if not typeb.is_reduced(word):
        raise ValueError(f"word {tuple(word)} is not reduced")
    p, t = pkr(tuple((1, (a,)) for a in word))
    q = tuple(tuple(tb.code_value(v) for v in row) for row in t)
    msg = tb.validate_st(q)
    if msg is not None:
        raise InvariantError(f"recording tableau invalid: {msg}")
    return p, q


def kr_inverse(p: Rows, q: Rows) -> tuple[int, ...]:
    """The reduced word w with kr(w) = (p, q); NotInImage otherwise."""
    # q first: a non-standard q such as 1 1 would code to a valid T
    # reading as one two-letter factor
    msg = tb.validate_st(q)
    if msg is not None:
        raise NotInImage(f"recording tableau invalid: {msg}")
    t = tuple(tuple(tb.code(v, False) for v in row) for row in q)
    return typeb.fact_word(pkr_inverse(p, t, m=sum(map(len, q))))
