"""Reference Weyl action and extreme vertices, through the model's operators.

The library reads the Weyl group action S_i, the odd colors i-bar and
the highest/lowest vertex off the arrows of a closed ``CrystalGraph``.
These versions apply ``model.e``/``f``/``e_bar``/``f_bar`` to elements
instead, as the definitions say, and are kept as oracles for
``qcrystal.engine.find_highest``/``find_lowest`` and ``engine._weyl``.
"""

from typing import Callable, Optional, Sequence

from qcrystal.engine import (CrystalModel, Element, pairing, w0_word,
                             w_word)

STEP_GUARD = 10**4


def _chain_length(op: Callable, name: str, i: int, b: Element) -> int:
    """Number of times op(i, .) applies to b before vanishing."""
    k = 0
    while b is not None:
        b = op(i, b)
        k += 1
        if k > STEP_GUARD:
            raise RuntimeError(
                f"{name}({i}, .) chain exceeded {STEP_GUARD} steps")
    return k - 1


def eps(model: CrystalModel, i: int, b: Element) -> int:
    """Number of times e(i, .) applies before vanishing."""
    return _chain_length(model.e, "e", i, b)


def phi(model: CrystalModel, i: int, b: Element) -> int:
    return _chain_length(model.f, "f", i, b)


def weyl_s(model: CrystalModel, i: int, b: Element) -> Element:
    """Weyl reflection S_i on crystal elements."""
    k = pairing(model, i, b)
    op = model.f if k >= 0 else model.e
    for _ in range(abs(k)):
        b = op(i, b)
        if b is None:
            raise RuntimeError(f"S_{i} ran off the crystal")
    return b


def weyl_w(model: CrystalModel, word: Sequence[int], b: Element) -> Element:
    """Apply S_{word[0]} S_{word[1]} ... as composition (rightmost first)."""
    for i in reversed(tuple(word)):
        b = weyl_s(model, i, b)
    return b


def _odd_conjugated(model: CrystalModel, bar, i: int,
                    b: Element) -> Optional[Element]:
    """The color-1 odd operator bar moved to color i by Weyl moves."""
    if bar is None:
        raise ValueError(f"model {model.name} has no odd operators")
    if i == 1:
        return bar(b)
    word = w_word(i)
    c = bar(weyl_w(model, word, b))
    if c is None:
        return None
    return weyl_w(model, list(reversed(word)), c)


def odd_e_bar(model: CrystalModel, i: int, b: Element) -> Optional[Element]:
    """The raising operator of color i-bar, reduced to e_bar by Weyl moves."""
    return _odd_conjugated(model, model.e_bar, i, b)


def odd_f_bar(model: CrystalModel, i: int, b: Element) -> Optional[Element]:
    return _odd_conjugated(model, model.f_bar, i, b)


def is_q_highest(model: CrystalModel, b: Element) -> bool:
    """Killed by every even raising operator and every odd one (the odd
    ones only where the model has them)."""
    colors = range(1, model.n)
    if any(model.e(i, b) is not None for i in colors):
        return False
    return model.e_bar is None or all(
        odd_e_bar(model, i, b) is None for i in colors)


def find_highest(model: CrystalModel, elements) -> list:
    """Every q-highest element among elements."""
    return [b for b in elements if is_q_highest(model, b)]


def find_lowest(model: CrystalModel, elements) -> list:
    """Every element that S_{w_0} carries to a q-highest one."""
    word = w0_word(model.n)
    return [b for b in elements
            if is_q_highest(model, weyl_w(model, word, b))]
