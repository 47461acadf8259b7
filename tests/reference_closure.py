"""Reference two-pass component closure.

A plain BFS finds the vertices, then a second loop applies every
operator again to record the arrows.  It is kept as an oracle for the
one-pass ``qcrystal.engine.component``: both must give the same
``vertices``, ``names`` and ``f_edges``/``e_edges``, in the same
insertion order.
"""

from typing import Optional

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
