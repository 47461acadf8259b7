"""Signed permutations and their reduced words.

A signed permutation of rank n is stored as the tuple
(w(1), ..., w(n)) of signed images; the group is generated by s_0
(negate the first value) and s_1..s_{n-1} (adjacent swaps), acting on
positions, i.e. by right multiplication.  Words over the alphabet
0..n-1 are int tuples; ``parse_word``/``fmt_word`` are the one digit
text codec ("012013"), shared with crystal words, so text caps the
alphabet at letters 0..9.

A signed unimodal factorization splits a reduced word into m possibly
empty unimodal blocks and decorates every nonempty block with a sign:
"(+01)(-2013)".  An empty block carries no sign and prints as "()".
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

Perm = tuple[int, ...]
Factor = tuple[int, tuple[int, ...]]  # (sign in {+1,-1,0}, letters)
Factorization = tuple[Factor, ...]

from qcrystal.tableaux import _int, is_unimodal


# ---------------------------------------------------------------------------
# words and permutations

def parse_word(text: str) -> tuple[int, ...]:
    """Parse digit text "0121" into the letters (0, 1, 2, 1)."""
    letters = []
    for ch in text:
        try:
            letters.append(_int(ch, "word", text))
        except ValueError:
            raise ValueError(f"not a digit {ch!r} in word {text!r}") from None
    return tuple(letters)


def fmt_word(word: Sequence[int]) -> str:
    if any(not 0 <= a <= 9 for a in word):
        raise ValueError(f"letters outside 0..9 have no digit form: {word}")
    return "".join(str(a) for a in word)


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def check_perm(perm: Sequence[int]) -> Perm:
    perm = tuple(perm)
    n = len(perm)
    if sorted(abs(v) for v in perm) != list(range(1, n + 1)) or 0 in perm:
        raise ValueError(f"not a signed permutation: {perm}")
    return perm


def parse_perm(text: str) -> Perm:
    """Parse "3,-2,4,-1" into (3, -2, 4, -1)."""
    return check_perm(tuple(_int(tok, "permutation", text)
                            for tok in text.split(",")))


def fmt_perm(perm: Perm) -> str:
    return ",".join(str(v) for v in perm)


def apply_gen(perm: Perm, i: int) -> Perm:
    """Right multiplication by s_i (0 negates the first position)."""
    if i == 0:
        return (-perm[0],) + perm[1:]
    if not 1 <= i < len(perm):
        raise ValueError(f"generator {i} out of range for rank {len(perm)}")
    out = list(perm)
    out[i - 1], out[i] = out[i], out[i - 1]
    return tuple(out)


def apply_word(word: Sequence[int], n: Optional[int] = None) -> Perm:
    """Fold the word left to right starting from the identity.

    >>> apply_word((0, 1, 2, 0, 1, 3))
    (3, -2, 4, -1)
    """
    if n is None:
        n = max(word, default=0) + 1
    perm = identity(n)
    for i in word:
        perm = apply_gen(perm, i)
    return perm


def length(perm: Perm) -> int:
    """Coxeter length: inversions plus the negative-image total."""
    n = len(perm)
    inv = sum(
        1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
    )
    neg = sum(-v for v in perm if v < 0)
    return inv + neg


def is_reduced(word: Sequence[int], n: Optional[int] = None) -> bool:
    """Whether length(apply_word(word, n)) is len(word).

    Each letter changes the length by exactly 1, so the word is reduced
    iff each letter is an ascent of the product before it: s_0 with
    w(1) > 0, or s_i with w(i) < w(i+1).  One scan over a running
    permutation decides that.  The letters are range-checked first, so a
    bad letter raises apply_gen's error even after a descent.
    """
    if n is None:
        n = max(word, default=0) + 1
    n = max(n, 0)  # the rank of identity(n)
    if word and not (0 <= min(word) and max(word) < n):
        bad = next(i for i in word if not 0 <= i < n)
        raise ValueError(f"generator {bad} out of range for rank {n}")
    perm = list(range(1, n + 1))
    for i in word:
        if i:
            a, b = perm[i - 1], perm[i]
            if a > b:
                return False
            perm[i - 1], perm[i] = b, a
        elif perm[0] < 0:
            return False
        else:
            perm[0] = -perm[0]
    return True


def right_descents(perm: Perm) -> list[int]:
    """Generators i with length(perm * s_i) < length(perm).

    As in is_reduced, s_0 is a descent iff w(1) < 0 and s_i (i >= 1)
    iff w(i) > w(i+1).
    """
    return [i for i in range(len(perm))
            if (perm[i - 1] > perm[i] if i else perm[0] < 0)]


def enumerate_reduced(perm: Perm) -> list[tuple[int, ...]]:
    """All reduced words of a signed permutation, sorted.

    >>> enumerate_reduced((1, 2))
    [()]
    """
    perm = check_perm(perm)
    memo: dict[Perm, list[tuple[int, ...]]] = {}

    def rec(p: Perm) -> list[tuple[int, ...]]:
        if p in memo:
            return memo[p]
        if length(p) == 0:
            memo[p] = [()]
            return memo[p]
        out = []
        for i in right_descents(p):
            for r in rec(apply_gen(p, i)):
                out.append(r + (i,))
        memo[p] = out
        return out

    return sorted(rec(perm))


def enumerate_perms(n: int) -> list[Perm]:
    """All 2^n n! signed permutations of rank n."""
    out = []
    for base in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            out.append(tuple(s * v for s, v in zip(signs, base)))
    return sorted(out)


# ---------------------------------------------------------------------------
# signed unimodal factorizations

def check_factorization(fact: Factorization) -> Factorization:
    fact = tuple((sign, tuple(word)) for sign, word in fact)
    for sign, word in fact:
        if word:
            if sign not in (1, -1):
                raise ValueError(f"nonempty factor {word} needs a sign")
            if not is_unimodal(word):
                raise ValueError(f"factor {word} is not unimodal")
        elif sign != 0:
            raise ValueError("empty factor cannot carry a sign")
    return fact


def fact_word(fact: Factorization) -> tuple[int, ...]:
    return tuple(a for _, word in fact for a in word)


def fact_weight(fact: Factorization) -> tuple[int, ...]:
    return tuple(len(word) for _, word in fact)


def parse_factorization(text: str) -> Factorization:
    """Parse "(+01)(-2013)" — one parenthesized, signed block per factor.

    >>> parse_factorization("(+01)()")
    ((1, (0, 1)), (0, ()))
    """
    text = text.strip()
    if not text:
        raise ValueError("empty factorization text")
    factors = []
    pos = 0
    while pos < len(text):
        if text[pos] != "(":
            raise ValueError(f"expected '(' at position {pos} of {text!r}")
        end = text.find(")", pos)
        if end < 0:
            raise ValueError(f"unclosed '(' at position {pos} of {text!r}")
        body = text[pos + 1:end]
        if not body:
            factors.append((0, ()))
        else:
            sign = {"+": 1, "-": -1}.get(body[0])
            if sign is None or len(body) == 1:
                raise ValueError(f"malformed factor {body!r} in {text!r}")
            factors.append((sign, parse_word(body[1:])))
        pos = end + 1
    return check_factorization(tuple(factors))


def fmt_factorization(fact: Factorization) -> str:
    parts = []
    for sign, word in fact:
        if not word:
            parts.append("()")
        else:
            parts.append(f"({'+' if sign > 0 else '-'}{fmt_word(word)})")
    return "".join(parts)


def enumerate_factorizations(perm: Perm, m: int) -> list[Factorization]:
    """All signed unimodal factorizations of perm into m blocks.

    >>> enumerate_factorizations((1, 2), 2)
    [((0, ()), (0, ()))]
    """
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    out = []
    for word in enumerate_reduced(perm):
        for cuts in itertools.combinations_with_replacement(
            range(len(word) + 1), m - 1
        ):
            bounds = (0,) + cuts + (len(word),)
            blocks = [
                word[bounds[k]:bounds[k + 1]] for k in range(m)
            ]
            if not all(is_unimodal(b) for b in blocks):
                continue
            sign_slots = [k for k, b in enumerate(blocks) if b]
            for signs in itertools.product((1, -1), repeat=len(sign_slots)):
                fact = [(0, b) for b in blocks]
                for s, k in zip(signs, sign_slots):
                    fact[k] = (s, blocks[k])
                out.append(tuple(fact))
    return sorted(out)
