"""The crystal of words over the alphabet {1..n}.

A word b_1...b_m is the tensor product of its single-letter factors,
read with the anti-Kashiwara convention (left factor is the "large"
one).  The even operators below use the standard bracketing shortcut,
every color in one scan of the word: ``arrows`` gives all of them at
once (engine.component calls it once per vertex), and ``e_even``/
``f_even`` are one color of the same scan.  ``unbracketed`` is the
stack form of one color's bracketing, an oracle for the scan.  The odd
operators use the leftmost-letter rule.  The tensor-product definition
itself lives in the test suite as an independent oracle.

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


def _bold(w: Sequence[int], n: int) -> tuple[list, list]:
    """One left-to-right scan for every color 1..n-1 at once.

    Returns (first, last): first[i] is the position of the leftmost
    unbracketed i+1 and last[i] that of the rightmost unbracketed i, or
    None.  A letter a opens a pair of color a-1 and closes one of color
    a; the still-open letters i+1 of a color form a stack, of which only
    the depth and the bottom matter.  Letters outside 1..n take no part.
    """
    depth = [0] * (n + 1)  # open letters i+1, by color i
    first: list = [None] * (n + 1)
    last: list = [None] * (n + 1)
    for p, a in enumerate(w):
        if not 0 < a <= n:
            continue
        if a > 1:
            if not depth[a - 1]:
                first[a - 1] = p
            depth[a - 1] += 1
        if depth[a]:
            depth[a] -= 1
        else:
            last[a] = p
    return [p if d else None for p, d in zip(first, depth)], last


def _put(w: Word, p: Optional[int], a: int) -> Optional[Word]:
    """w with the letter at position p set to a; None if p is None."""
    return None if p is None else w[:p] + (a,) + w[p + 1:]


def arrows(w: Word, n: int) -> tuple[Optional[Word], ...]:
    """f_1(w), e_1(w), ..., f_{n-1}(w), e_{n-1}(w) from one scan (_bold):
    f_i turns the rightmost unbracketed i into i+1, e_i the leftmost
    unbracketed i+1 into i.

    >>> arrows((1, 2, 1), 3)
    ((2, 2, 1), None, (1, 3, 1), None)
    """
    first, last = _bold(w, n)
    row: list[Optional[Word]] = []
    for i in range(1, n):
        row += _put(w, last[i], i + 1), _put(w, first[i], i)
    return tuple(row)


def e_even(i: int, w: Word) -> Optional[Word]:
    """Raising operator for color i: leftmost unbracketed i+1 becomes i."""
    return _put(tuple(w), _bold(w, i + 1)[0][i], i)


def f_even(i: int, w: Word) -> Optional[Word]:
    """Lowering operator for color i: rightmost unbracketed i becomes i+1.

    >>> f_even(1, (1,))
    (2,)
    >>> f_even(1, (2, 1)) is None
    True
    """
    return _put(tuple(w), _bold(w, i + 1)[1][i], i + 1)


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
