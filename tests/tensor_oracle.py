"""Independent oracle for word operators.

Implements the crystal structure of B_n(box)^{tensor m} directly from
the two-factor tensor rules (anti-Kashiwara convention), recursing on a
left-deep split w = (b_1...b_{m-1}) tensor (b_m).  ``unbracketed`` is
the stack form of one color's bracketing, a second oracle for the
one-scan bracketing of ``qcrystal.words``.  Nothing here is shared with
qcrystal.words; agreement of the implementations is a test, not an
assumption.
"""

from __future__ import annotations

from typing import Optional, Sequence


def _eps_letter(i: int, a: int) -> int:
    return 1 if a == i + 1 else 0


def _phi_letter(i: int, a: int) -> int:
    return 1 if a == i else 0


def e_tensor(i: int, w: tuple[int, ...]) -> Optional[tuple[int, ...]]:
    if len(w) == 0:
        return None
    if len(w) == 1:
        return (i,) if w[0] == i + 1 else None
    b1, b2 = w[:-1], w[-1]
    if _phi_letter(i, b2) < eps_tensor(i, b1):
        head = e_tensor(i, b1)
        return None if head is None else head + (b2,)
    return w[:-1] + (i,) if b2 == i + 1 else None


def f_tensor(i: int, w: tuple[int, ...]) -> Optional[tuple[int, ...]]:
    if len(w) == 0:
        return None
    if len(w) == 1:
        return (i + 1,) if w[0] == i else None
    b1, b2 = w[:-1], w[-1]
    if _phi_letter(i, b2) <= eps_tensor(i, b1):
        head = f_tensor(i, b1)
        return None if head is None else head + (b2,)
    return w[:-1] + (i + 1,) if b2 == i else None


def eps_tensor(i: int, w: tuple[int, ...]) -> int:
    k = 0
    while True:
        w2 = e_tensor(i, w)
        if w2 is None:
            return k
        w, k = w2, k + 1


def phi_tensor(i: int, w: tuple[int, ...]) -> int:
    k = 0
    while True:
        w2 = f_tensor(i, w)
        if w2 is None:
            return k
        w, k = w2, k + 1


def e_bar_tensor(w: tuple[int, ...]) -> Optional[tuple[int, ...]]:
    if len(w) == 0:
        return None
    if len(w) == 1:
        return (1,) if w[0] == 2 else None
    b1, b2 = w[:-1], w[-1]
    if all(a not in (1, 2) for a in b1):
        return w[:-1] + (1,) if b2 == 2 else None
    head = e_bar_tensor(b1)
    return None if head is None else head + (b2,)


def f_bar_tensor(w: tuple[int, ...]) -> Optional[tuple[int, ...]]:
    if len(w) == 0:
        return None
    if len(w) == 1:
        return (2,) if w[0] == 1 else None
    b1, b2 = w[:-1], w[-1]
    if all(a not in (1, 2) for a in b1):
        return w[:-1] + (2,) if b2 == 1 else None
    head = f_bar_tensor(b1)
    return None if head is None else head + (b2,)


def unbracketed(i: int, letters: Sequence[int]) -> tuple[list[int], list[int]]:
    """Positions of unbracketed letters i+1 (openers) and i (closers).

    Scanning left to right, each letter i closes the most recent still
    open i+1; what survives is returned as (opener_positions,
    closer_positions), both in increasing order.
    """
    stack: list[int] = []
    closers: list[int] = []
    for p, a in enumerate(letters):
        if a == i + 1:
            stack.append(p)
        elif a == i:
            if stack:
                stack.pop()
            else:
                closers.append(p)
    return stack, closers
