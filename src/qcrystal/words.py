"""The crystal of words over the alphabet {1..n}.

A word b_1...b_m is the tensor product of its single-letter factors,
read with the anti-Kashiwara convention (left factor is the "large"
one).  The even operators below use the standard bracketing shortcut;
the odd operators use the leftmost-letter rule.  The tensor-product
definition itself lives in the test suite as an independent oracle.

A word is a tuple of int letters; operators answer with a tuple.  The
digit text of a word ("321121") is parsed and printed only by
``typeb.parse_word``/``fmt_word``.
"""

from __future__ import annotations

from typing import Optional, Sequence

Word = tuple[int, ...]


def weight(w: Sequence[int], n: int) -> tuple[int, ...]:
    """Multiplicity of each letter 1..n; ValueError outside 1..n.

    >>> weight((1, 2, 1, 3), 3)
    (2, 1, 1)
    >>> weight((), 4)
    (0, 0, 0, 0)
    """
    wt = [0] * n
    for a in w:
        if not 1 <= a <= n:
            raise ValueError(f"letter {a} outside alphabet 1..{n}")
        wt[a - 1] += 1
    return tuple(wt)


def validate(w: Sequence[int], n: int) -> Optional[str]:
    """None if every letter of w lies in 1..n, else why not.

    >>> validate((1, 3), 3) is None
    True
    >>> validate((1, 4, 0), 3)
    'letter 4 outside alphabet 1..3'
    """
    if not w or (min(w) >= 1 and max(w) <= n):
        return None
    bad = next(a for a in w if not 1 <= a <= n)
    return f"letter {bad} outside alphabet 1..{n}"


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


def e_even(i: int, w: Word) -> Optional[Word]:
    """Raising operator for color i: leftmost unbracketed i+1 becomes i."""
    letters = list(w)
    openers, _ = unbracketed(i, letters)
    if not openers:
        return None
    letters[openers[0]] = i
    return tuple(letters)


def f_even(i: int, w: Word) -> Optional[Word]:
    """Lowering operator for color i: rightmost unbracketed i becomes i+1.

    >>> f_even(1, (1,))
    (2,)
    >>> f_even(1, (2, 1)) is None
    True
    """
    letters = list(w)
    _, closers = unbracketed(i, letters)
    if not closers:
        return None
    letters[closers[-1]] = i + 1
    return tuple(letters)


def e_bar1(w: Word) -> Optional[Word]:
    """Odd raising operator: leftmost 2 becomes 1, unless a 1 precedes it.

    >>> e_bar1((3, 2, 1, 1, 2, 1))
    (3, 1, 1, 1, 2, 1)
    """
    letters = list(w)
    for p, a in enumerate(letters):
        if a == 1:
            return None
        if a == 2:
            letters[p] = 1
            return tuple(letters)
    return None


def f_bar1(w: Word) -> Optional[Word]:
    """Odd lowering operator: leftmost 1 becomes 2, unless a 2 precedes it.

    >>> f_bar1((1,))
    (2,)
    >>> f_bar1((2, 1)) is None
    True
    """
    letters = list(w)
    for p, a in enumerate(letters):
        if a == 2:
            return None
        if a == 1:
            letters[p] = 2
            return tuple(letters)
    return None
