"""Ready-made CrystalModel instances for the five element types.

Words carry the primitive operators and primed tableaux have native
ones; signed primed tableaux wrap those in sign bookkeeping.  The other
two families are those crystals under a new name, closed on their proxy
(CrystalModel.via): decomposition tableaux on words through the reading
word, and signed unimodal factorizations on signed primed tableaux
through the primed insertion, which keeps P fixed.  Each builder fixes n
(the number of weight coordinates), a canonical text form for vertices,
and the family's validator over that alphabet (looked up at call time):
1..n for words and SSDT, 1'..n for PT and SPT.  It is the one
statement of the family; engine.component runs it once on every vertex
it reaches, and the CLI runs it on a --seed.
"""

import dataclasses
import itertools

from . import factorization as fc
from . import kraskiewicz as kw
from . import ptops
from . import tableaux as tb
from . import typeb
from . import words
from .engine import CrystalModel

Rows = tb.Rows


def model_words(n: int) -> CrystalModel:
    """All words over the letters 1..n; odd operators included for n >= 2."""
    return CrystalModel(
        n=n,
        e=words.e_even,
        f=words.f_even,
        weight=lambda w: words.weight(w, n),
        e_bar=words.e_bar1 if n >= 2 else None,
        f_bar=words.f_bar1 if n >= 2 else None,
        fmt=typeb.fmt_word,
        name=f"words{n}",
        validate=lambda w: words.validate(w, n),
    )


def _ssdt_lift(t: Rows):
    """The reading word of t, and the cut of a word back into t's shape."""
    ends = list(itertools.accumulate(map(len, t)))
    return tb.rw_ssdt(t), lambda w: tuple(
        tuple(reversed(w[a:b])) for a, b in zip([0] + ends, ends))


def model_ssdt(n: int) -> CrystalModel:
    """Decomposition tableaux, closed on words through the reading word.

    The proxy words go unchecked: validate_ssdt bounds the same letters.
    """
    return CrystalModel(
        n=n,
        weight=lambda t: tb.ssdt_weight(t, n),
        fmt=tb.fmt_plain,
        name=f"ssdt{n}",
        validate=lambda t: tb.validate_ssdt(t, n=n),
        via=(dataclasses.replace(model_words(n), validate=None), _ssdt_lift),
    )


def model_pt(n: int) -> CrystalModel:
    """Primed tableaux with unprimed diagonal."""
    return CrystalModel(
        n=n,
        e=ptops.e_even_pt,
        f=ptops.f_even_pt,
        weight=lambda t: tb.pt_weight(t, n),
        e_bar=ptops.e_bar1_pt if n >= 2 else None,
        f_bar=ptops.f_bar1_pt if n >= 2 else None,
        fmt=tb.fmt_primed,
        name=f"pt{n}",
        validate=lambda t: tb.validate_pt(t, n=n),
    )


def model_spt(m: int) -> CrystalModel:
    """Signed primed tableaux (free diagonal primes), entries up to m."""
    return CrystalModel(
        n=m,
        e=ptops.e_signed,
        f=ptops.f_signed,
        weight=lambda t: tb.pt_weight(t, m),
        e_bar=(lambda t: ptops.e_signed("b1", t)) if m >= 2 else None,
        f_bar=(lambda t: ptops.f_signed("b1", t)) if m >= 2 else None,
        fmt=tb.fmt_primed,
        name=f"spt{m}",
        validate=lambda t: tb.validate_pt(t, n=m, diagonal_unprimed=False),
    )


def model_fact(m: int) -> CrystalModel:
    """Signed unimodal factorizations with m factors, closed on their
    recording tableaux; the odd pair is factor surgery."""
    def lift(seed):
        if len(seed) != m:
            raise ValueError(f"seed has {len(seed)} factors, expected {m}")
        p, t = kw.pkr(seed)
        return t, kw.pkr_fibre(p, m)

    return CrystalModel(
        n=m,
        weight=typeb.fact_weight,
        e_bar=fc.e_bar1_fact if m >= 2 else None,
        f_bar=fc.f_bar1_fact if m >= 2 else None,
        fmt=typeb.fmt_factorization,
        name=f"fact{m}",
        via=(model_spt(m), lift),
    )


def seed_factorization(perm: tuple, m: int):
    """A canonical element of U_m: the first reduced word greedily cut
    into maximal unimodal factors, all signed +, padded with empties."""
    for word in typeb.enumerate_reduced(perm):
        blocks: list[tuple[int, ...]] = []
        for a in word:
            if blocks and tb.is_unimodal(blocks[-1] + (a,)):
                blocks[-1] = blocks[-1] + (a,)
            else:
                blocks.append((a,))
        if len(blocks) <= m:
            factors = [(1, blk) for blk in blocks]
            factors += [(0, ())] * (m - len(blocks))
            return typeb.check_factorization(tuple(factors))
    raise ValueError(f"no factorization of {typeb.fmt_perm(perm)} into {m} "
                     "unimodal factors")


# ---------------------------------------------------------------------------
# extreme decomposition tableaux

def highest_ssdt(n: int, shape) -> Rows:
    """Cell (r, r + j) holds d(r, j) = #{r' >= r : shape[r'] > j}
    (tb.rim_depths): the nested rim strips, the outermost filled with 1.

    >>> tb.fmt_plain(highest_ssdt(4, (5, 3, 1)))
    '3 2 2 1 1 / 2 1 1 / 1'
    """
    shape = tb.check_strict(shape, n)
    out = tb.rim_depths(shape)
    msg = tb.validate_ssdt(out, n=n)
    if msg is not None:
        raise tb.InvariantError(msg)
    return out


def lowest_ssdt(n: int, shape) -> Rows:
    """Row i constant n - i.

    >>> tb.fmt_plain(lowest_ssdt(4, (5, 3, 1)))
    '4 4 4 4 4 / 3 3 3 / 2'
    """
    shape = tb.check_strict(shape, n)
    out = tuple((n - r,) * part for r, part in enumerate(shape))
    msg = tb.validate_ssdt(out, n=n)
    if msg is not None:
        raise tb.InvariantError(msg)
    return out
