"""Ready-made CrystalModel instances for the five element types.

Words carry the primitive operators; decomposition tableaux inherit them
through their reading word; primed tableaux have native operators; the
signed variants and factorizations wrap those in sign bookkeeping and
insertion transport.  Each builder fixes n (the number of weight
coordinates), a canonical text form for vertices, and the family's
validator (looked up on tableaux at call time), which engine.component
runs once on every vertex it reaches.  fact_component closes a
factorization component on its recording tableau.
"""

from . import engine
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
    )


def _ssdt_op(op, t: Rows):
    """op on the reading word of t, cut back into rows of t's shape."""
    out = op(tb.rw_ssdt(t))
    if out is None:
        return None
    rows, pos = [], 0
    for row in t:
        rows.append(tuple(reversed(out[pos:pos + len(row)])))
        pos += len(row)
    return tuple(rows)


def model_ssdt(n: int) -> CrystalModel:
    """Decomposition tableaux; operators act through the reading word."""
    return CrystalModel(
        n=n,
        e=lambda i, t: _ssdt_op(lambda w: words.e_even(i, w), t),
        f=lambda i, t: _ssdt_op(lambda w: words.f_even(i, w), t),
        weight=lambda t: tb.ssdt_weight(t, n),
        e_bar=(lambda t: _ssdt_op(words.e_bar1, t)) if n >= 2 else None,
        f_bar=(lambda t: _ssdt_op(words.f_bar1, t)) if n >= 2 else None,
        fmt=tb.fmt_plain,
        name=f"ssdt{n}",
        validate=lambda t: tb.validate_ssdt(t),
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
        validate=lambda t: tb.validate_pt(t),
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
        validate=lambda t: tb.validate_pt(t, diagonal_unprimed=False),
    )


def model_fact(m: int) -> CrystalModel:
    """Signed unimodal factorizations with m factors."""
    return CrystalModel(
        n=m,
        e=lambda i, x: fc.e_fact(x, i),
        f=lambda i, x: fc.f_fact(x, i),
        weight=typeb.fact_weight,
        e_bar=fc.e_bar1_fact if m >= 2 else None,
        f_bar=fc.f_bar1_fact if m >= 2 else None,
        fmt=typeb.fmt_factorization,
        name=f"fact{m}",
    )


def fact_component(seed, m: int) -> engine.CrystalGraph:
    """The component of seed in model_fact(m), closed on recording tableaux.

    The even operators are transported through the primed insertion, which
    keeps the insertion tableau P fixed, so the component is the signed
    primed tableau component of the seed's recording tableau, mapped back
    by one pkr_inverse per vertex.  The odd pair is recomputed by factor
    surgery on every vertex and must land where transport does, else
    InvariantError.  The graph equals engine.component(model_fact(m),
    seed), vertex and edge order included, and the vertex cap is the same.
    """
    if len(seed) != m:
        raise ValueError(f"seed has {len(seed)} factors, expected {m}")
    p, t = kw.pkr(seed)
    g = engine.component(model_spt(m), t)
    facts = [kw.pkr_inverse(p, v, m=m) for v in g.vertices]
    colors = [*range(1, m), "b1"]
    arrows = [tuple(edges.get((c, k)) for c in colors
                    for edges in (g.f_edges, g.e_edges))
              for k in range(len(facts))]
    model = model_fact(m)
    if model.f_bar is not None:
        for x, row in zip(facts, arrows):
            moved = tuple(None if k is None else facts[k] for k in row[-2:])
            if (model.f_bar(x), model.e_bar(x)) != moved:
                raise tb.InvariantError(
                    "odd operators disagree with transport at "
                    + typeb.fmt_factorization(x))
    return engine._sorted_graph(model, facts, arrows)


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
    """Nested border strips, the outermost filled with 1.

    >>> tb.fmt_plain(highest_ssdt(4, (5, 3, 1)))
    '3 2 2 1 1 / 2 1 1 / 1'
    """
    shape = tb.check_strict(shape, n)
    cells: dict[tuple[int, int], int] = {}
    for k, strip in enumerate(tb.border_strips(shape)):
        for (r, c), _ in strip:
            cells[(r, c)] = k + 1
    out = tb.from_cells(shape, cells)
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
