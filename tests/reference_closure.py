"""Reference two-pass component closure, and per-call proxied models.

A plain BFS finds the vertices, then a second loop applies every
operator again to record the arrows.  It is kept as an oracle for the
one-pass ``qcrystal.engine.component``: both must give the same
``vertices``, ``names`` and ``f_edges``/``e_edges``, in the same
insertion order.

``model_ssdt`` and ``model_fact`` are the decomposition tableau and
factorization models with their own e/f: each call carries its element
to the proxy crystal (reading word; recording tableau), applies the
proxy's operator there and maps the result back.  They are the oracles
for the library's models, which name the proxy (``CrystalModel.via``)
and are closed on it.
"""

from typing import Optional

from qcrystal import factorization as fc
from qcrystal import typeb, words
from qcrystal import tableaux as tb
from qcrystal.engine import (CapExceeded, Color, CrystalGraph, CrystalModel,
                             Element, _cap_from_env)


def component(model: CrystalModel, seed: Element,
              cap: Optional[int] = None) -> CrystalGraph:
    """BFS closure of seed under all e/f arrows, then a separate edge pass."""
    cap = _cap_from_env(cap)
    seen = {seed}
    frontier = [seed]
    while frontier:
        nxt = []
        for b in frontier:
            for c in _neighbors(model, b):
                if c not in seen:
                    seen.add(c)
                    if len(seen) > cap:
                        raise CapExceeded(cap)
                    nxt.append(c)
        frontier = nxt
    vertices = sorted(seen, key=model.fmt)
    index = {b: k for k, b in enumerate(vertices)}
    f_edges: dict[tuple[Color, int], int] = {}
    e_edges: dict[tuple[Color, int], int] = {}
    for b in vertices:
        u = index[b]
        for i in range(1, model.n):
            c = model.f(i, b)
            if c is not None:
                f_edges[(i, u)] = index[c]
            c = model.e(i, b)
            if c is not None:
                e_edges[(i, u)] = index[c]
        if model.f_bar is not None:
            c = model.f_bar(b)
            if c is not None:
                f_edges[("b1", u)] = index[c]
        if model.e_bar is not None:
            c = model.e_bar(b)
            if c is not None:
                e_edges[("b1", u)] = index[c]
    return CrystalGraph(model, vertices, [model.fmt(b) for b in vertices],
                        f_edges, e_edges)


def _neighbors(model: CrystalModel, b: Element):
    for i in range(1, model.n):
        for op in (model.e, model.f):
            c = op(i, b)
            if c is not None:
                yield c
    for op in (model.e_bar, model.f_bar):
        if op is not None:
            c = op(b)
            if c is not None:
                yield c


def _ssdt_op(op, t):
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


def model_fact(m: int) -> CrystalModel:
    """Signed unimodal factorizations with m factors; the even operators
    are transported through pkr one factorization at a time."""
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

