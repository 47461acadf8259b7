"""Reference two-pass component closure, and per-call proxied models.

A plain BFS finds the vertices, then a second loop applies every
operator again to record the arrows.  It is kept as an oracle for the
one-pass ``qcrystal.engine.component``: both must give the same
``vertices``, ``names`` and ``f_edges``/``e_edges``, in the same
insertion order.

The even arrows of a vertex are read off its row ``model.arrows(b)``:
slot 2i-2 holds f_i(b) and slot 2i-1 holds e_i(b).  ``f_of``/``e_of``
read one slot, for walks one color at a time (``reference_weyl``).
``arrow_row`` goes the other way: it builds an arrows callable from
per-color functions, each slot computed by its own function.

``model_ssdt`` and ``model_fact`` are the decomposition tableau and
factorization models with per-color operators of their own: each call
carries its element to the proxy crystal (reading word; recording
tableau), applies the proxy's operator there and maps the result back.
They are the oracles for the library's models, which name the proxy
(``CrystalModel.via``) and are closed on it.
"""

from qcrystal import factorization as fc
from qcrystal import typeb, words
from qcrystal import tableaux as tb
from qcrystal.engine import (CapExceeded, Color, CrystalGraph, CrystalModel,
                             Element, _cap_from_env)


def arrow_row(n: int, f, e):
    """arrows for a model of rank n from per-color f(i, b) and e(i, b):
    (f(1, b), e(1, b), ..., f(n-1, b), e(n-1, b))."""
    return lambda b: tuple(x for i in range(1, n) for x in (f(i, b), e(i, b)))


def f_of(model: CrystalModel, i: int, b: Element):
    """f_i(b), read off model.arrows."""
    return model.arrows(b)[2 * i - 2]


def e_of(model: CrystalModel, i: int, b: Element):
    """e_i(b), read off model.arrows."""
    return model.arrows(b)[2 * i - 1]


def component(model: CrystalModel, seed: Element) -> CrystalGraph:
    """BFS closure of seed under all e/f arrows, then a separate edge pass."""
    cap = _cap_from_env()
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
        row = model.arrows(b)
        for i in range(1, model.n):
            c = row[2 * i - 2]
            if c is not None:
                f_edges[(i, u)] = index[c]
            c = row[2 * i - 1]
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
    row = model.arrows(b)
    for i in range(1, model.n):
        for c in (row[2 * i - 1], row[2 * i - 2]):
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
        arrows=arrow_row(
            n, lambda i, t: _ssdt_op(lambda w: words.f_even(i, w), t),
            lambda i, t: _ssdt_op(lambda w: words.e_even(i, w), t)),
        weight=lambda t: tb.ssdt_weight(t, n),
        e_bar=(lambda t: _ssdt_op(words.e_bar1, t)) if n >= 2 else None,
        f_bar=(lambda t: _ssdt_op(words.f_bar1, t)) if n >= 2 else None,
        fmt=tb.fmt_plain,
        name=f"ssdt{n}",
        validate=lambda t: tb.validate_ssdt(t, n=n),
    )


def model_fact(m: int) -> CrystalModel:
    """Signed unimodal factorizations with m factors; the even operators
    are transported through pkr one factorization at a time."""
    return CrystalModel(
        n=m,
        arrows=arrow_row(m, lambda i, x: fc.f_fact(x, i),
                         lambda i, x: fc.e_fact(x, i)),
        weight=typeb.fact_weight,
        e_bar=fc.e_bar1_fact if m >= 2 else None,
        f_bar=fc.f_bar1_fact if m >= 2 else None,
        fmt=typeb.fmt_factorization,
        name=f"fact{m}",
    )

