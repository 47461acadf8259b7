"""Reference plain Kraśkiewicz insertion with its own loop and search.

``kr`` inserts letter by letter and records each new box's step number;
``kr_inverse`` removes boxes in decreasing order of Q, tries every
local undoing of each bump chain, and re-inserts every leaf.  They are
kept as oracles for ``qcrystal.kraskiewicz.kr``/``kr_inverse``, which
run the primed insertion on one-letter factors instead.  The row step
and its local inverses are the library's own.
"""

from typing import Sequence

from qcrystal import tableaux as tb
from qcrystal import typeb
from qcrystal.kraskiewicz import _insert, _reverse_steps, validate_sdt
from qcrystal.tableaux import InvariantError, NotInImage, Rows


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
