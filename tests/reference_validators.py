"""Reference versions of the tableau validators and subword kernels.

These are straightforward implementations kept as oracles for the faster
kernels in ``qcrystal.tableaux``, ``qcrystal.typeb`` and
``qcrystal.kraskiewicz``: the three-loop longest hook/unimodal subword,
hooks and unimodal words split into two slices, reducedness and right
descents as length counts, and columns probed cell by cell through
``get``.  Each validator must return exactly what its library
counterpart returns: None, or the same first-violation message.
"""

from typing import Optional, Sequence

from qcrystal import tableaux as tb
from qcrystal import typeb
from qcrystal.kraskiewicz import rw_sdt


def get(rows, r: int, c: int):
    """Entry at 0-based cell (r, c), or None if outside the shape."""
    if 0 <= r < len(rows) and r <= c < r + len(rows[r]):
        return rows[r][c - r]
    return None


def strictly_increasing(w: Sequence[int]) -> bool:
    return all(a < b for a, b in zip(w, w[1:]))


def hook_split(w: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split off the maximal weakly decreasing prefix."""
    w = tuple(w)
    if not w:
        raise ValueError("hook_split of an empty word")
    k = 1
    while k < len(w) and w[k] <= w[k - 1]:
        k += 1
    return w[:k], w[k:]


def is_hook(w: Sequence[int]) -> bool:
    dec, inc = hook_split(w)
    return strictly_increasing(inc)


def is_unimodal(w: Sequence[int]) -> bool:
    if not w:
        return True
    dec, inc = tb.unimodal_split(w)
    # the junction must rise strictly: dec owns the unique minimum
    if inc and inc[0] <= dec[-1]:
        return False
    return strictly_increasing(inc)


def is_reduced(word: Sequence[int], n: Optional[int] = None) -> bool:
    """The word's length equals the Coxeter length of its product."""
    return len(word) == typeb.length(typeb.apply_word(word, n))


def right_descents(perm) -> list[int]:
    """Generators i with length(perm * s_i) < length(perm), by length."""
    return [i for i in range(len(perm))
            if typeb.length(typeb.apply_gen(perm, i)) < typeb.length(perm)]


def longest_vee_len(w: Sequence[int], strict_dec: bool) -> int:
    # dec[p]: longest (weakly/strictly) decreasing subword ending at p;
    # inc[p]: longest strictly increasing subword starting at p; the vee
    # with valley p continues with the best inc[q] above w[p].
    w = tuple(w)
    m = len(w)
    if m == 0:
        return 0
    dec = [1] * m
    for p in range(m):
        for q in range(p):
            ok = w[q] > w[p] if strict_dec else w[q] >= w[p]
            if ok:
                dec[p] = max(dec[p], dec[q] + 1)
    inc = [1] * m
    for p in range(m - 1, -1, -1):
        for q in range(p + 1, m):
            if w[q] > w[p]:
                inc[p] = max(inc[p], inc[q] + 1)
    best = 0
    for p in range(m):
        tail = max(
            (inc[q] for q in range(p + 1, m) if w[q] > w[p]), default=0
        )
        best = max(best, dec[p] + tail)
    return best


def _shape_ok(rows) -> Optional[str]:
    shape = tb.shape_of(rows)
    if any(length == 0 for length in shape):
        return f"empty row in shape {shape}"
    try:
        tb.check_strict(shape)
    except ValueError as exc:
        return str(exc)
    return None


def validate_pt(rows, n: Optional[int] = None,
                diagonal_unprimed: bool = True) -> Optional[str]:
    msg = _shape_ok(rows)
    if msg:
        return msg
    for r, row in enumerate(rows):
        for j, c in enumerate(row):
            if c < 1 or (n is not None and tb.code_value(c) > n):
                return (f"entry {tb.letter_str(c)} at {(r + 1, r + j + 1)} "
                        f"out of range")
    for r, row in enumerate(rows):
        if diagonal_unprimed and tb.code_primed(row[0]):
            return (f"primed diagonal entry {tb.letter_str(row[0])} "
                    f"in row {r + 1}")
        if any(a > b for a, b in zip(row, row[1:])):
            return f"row {r + 1} not weakly increasing"
        primed_vals = [tb.code_value(c) for c in row if tb.code_primed(c)]
        if len(primed_vals) != len(set(primed_vals)):
            return f"row {r + 1} repeats a primed letter"
    ncols = max((r + len(row) for r, row in enumerate(rows)), default=0)
    for c in range(ncols):
        col = [get(rows, r, c) for r in range(len(rows))]
        col = [v for v in col if v is not None]
        if any(a > b for a, b in zip(col, col[1:])):
            return f"column {c + 1} not weakly increasing"
        unprimed_vals = [tb.code_value(v) for v in col
                         if not tb.code_primed(v)]
        if len(unprimed_vals) != len(set(unprimed_vals)):
            return f"column {c + 1} repeats an unprimed letter"
    return None


def validate_st(rows) -> Optional[str]:
    msg = _shape_ok(rows)
    if msg:
        return msg
    entries = sorted(v for row in rows for v in row)
    if entries != list(range(1, len(entries) + 1)):
        return f"entries are not 1..{len(entries)}"
    for r, row in enumerate(rows):
        if any(a >= b for a, b in zip(row, row[1:])):
            return f"row {r + 1} not strictly increasing"
    ncols = max((r + len(row) for r, row in enumerate(rows)), default=0)
    for c in range(ncols):
        col = [get(rows, r, c) for r in range(len(rows))]
        col = [v for v in col if v is not None]
        if any(a >= b for a, b in zip(col, col[1:])):
            return f"column {c + 1} not strictly increasing"
    return None


def validate_ssdt(rows, n: Optional[int] = None) -> Optional[str]:
    msg = _shape_ok(rows)
    if msg:
        return msg
    for r, row in enumerate(rows):
        if n is not None and any(not 1 <= v <= n for v in row):
            return f"row {r + 1} letter out of range 1..{n}"
        if not is_hook(row):
            return f"row {r + 1} is not a hook word"
    for r in range(len(rows) - 1):
        cat = rows[r + 1] + rows[r]
        if longest_vee_len(cat, strict_dec=False) != len(rows[r]):
            return (
                f"row {r + 1} is not a maximal hook subword in rows "
                f"{r + 2},{r + 1}"
            )
    return None


def validate_sdt(rows, n: Optional[int] = None) -> Optional[str]:
    shape = tb.shape_of(rows)
    if any(part == 0 for part in shape):
        return "empty row"
    try:
        tb.check_strict(shape)
    except ValueError as exc:
        return str(exc)
    for r, row in enumerate(rows):
        if n is not None and any(not 0 <= a < n for a in row):
            return f"row {r + 1} letter out of range 0..{n - 1}"
        if not is_unimodal(row):
            return f"row {r + 1} is not unimodal"
    for r in range(len(rows) - 1):
        cat = rows[r + 1] + rows[r]
        if longest_vee_len(cat, strict_dec=True) != len(rows[r]):
            return (
                f"row {r + 1} is not a maximal unimodal subword in rows "
                f"{r + 2},{r + 1}"
            )
    if not is_reduced(rw_sdt(rows)):
        return "reading word is not reduced"
    return None


def rw_pt_cells(rows) -> list[tuple[int, bool, tuple[int, int]]]:
    out = []
    ncols = max((r + len(row) for r, row in enumerate(rows)), default=0)
    for c in range(ncols - 1, -1, -1):
        for r in range(len(rows)):
            v = get(rows, r, c)
            if v is not None and tb.code_primed(v):
                out.append((tb.code_value(v), True, (r, c)))
    for r in range(len(rows) - 1, -1, -1):
        for j, v in enumerate(rows[r]):
            if not tb.code_primed(v):
                out.append((tb.code_value(v), False, (r, r + j)))
    return out


def with_neighbours(family, lo: int, hi: int):
    """Each tableau of family, followed by every tableau that differs from
    it in one cell by one letter, staying within lo..hi."""
    for rows in family:
        yield rows
        for r, row in enumerate(rows):
            for j, v in enumerate(row):
                for w in (v - 1, v + 1):
                    if lo <= w <= hi:
                        yield rows[:r] + (row[:j] + (w,) + row[j + 1:],) \
                            + rows[r + 1:]
