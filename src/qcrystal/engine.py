"""Generic crystal machinery.

A crystal is described operationally by a CrystalModel: the arrow row
arrows(b) = (f_1(b), e_1(b), ..., f_{n-1}(b), e_{n-1}(b)) of the colors
i = 1..n-1, a weight function, and optionally the odd pair e_bar /
f_bar (color "b1").  One call gives every even arrow of b, so a model
can bracket b once for all of them; each e-slot is still computed by
e_i's own rule, never read off the f-arrows.  Elements may be any
hashable values; fmt renders them canonically.  A family that is
another crystal under a new name sets via = (proxy, lift) instead of
arrows, and its arrows are the proxy's.

component is the only function that calls these operators: it closes
a seed into a CrystalGraph (BFS with a vertex cap) holding every arrow,
and checks each vertex once against the model's family (validate).
Everything else is read off that graph: the string lengths eps/phi, the
Weyl group action S_i and the odd colors i-bar (e_bar conjugated by
S_w), axiom checkers that report every violation, highest/lowest vertex
searches, and DOT/JSON export.  One walk, _graph_strings, gives the
eps/phi tables that gl1-gl3 and q5ii read; one helper, _arrow_axioms,
checks the arrow conditions (weight shift, string step, e/f pairing) of
the even colors and of "b1", named after the colors it is given.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Hashable, Optional, Sequence, Union

from .tableaux import InvariantError, _int

Element = Hashable
Color = Union[int, str]  # 1..n-1, or "b1" for the odd pair

DEFAULT_CAP = 10**6


class CapExceeded(Exception):
    """Component closure touched more vertices than allowed."""

    def __init__(self, cap: int):
        super().__init__(cap)  # args is (cap,), so a pickled copy is equal
        self.cap = cap

    def __str__(self) -> str:
        return f"component exceeded the vertex cap {self.cap}"


@dataclass(frozen=True)
class CrystalModel:
    n: int
    weight: Callable[[Element], tuple[int, ...]]
    # arrows(b) = (f_1(b), e_1(b), ..., f_{n-1}(b), e_{n-1}(b)), None
    # where an operator is undefined: the one way to give the even colors
    arrows: Optional[Callable[[Element], tuple]] = None
    # never set (a ValueError): fields only because perfbench/spans.py
    # names them
    e: None = None
    f: None = None
    e_bar: Optional[Callable[[Element], Optional[Element]]] = None
    f_bar: Optional[Callable[[Element], Optional[Element]]] = None
    fmt: Callable[[Element], str] = field(default=str)
    name: str = "crystal"
    # the family check: why an element is not in the family, or None
    validate: Optional[Callable[[Element], Optional[str]]] = None
    # (proxy, lift) in place of e/f: lift(seed) is the seed's image in the
    # proxy crystal and the map back; the arrows are the proxy's
    via: Optional[tuple["CrystalModel", Callable]] = None

    def __post_init__(self):
        if self.e is not None or self.f is not None:
            raise ValueError(f"model {self.name} sets e or f; "
                             "the even operators are given by arrows")
        if (self.arrows is None) == (self.via is None):
            raise ValueError(f"model {self.name} needs exactly one of "
                             "arrows and via")

    @property
    def colors(self) -> list[Color]:
        if self.via is not None:
            return self.via[0].colors
        out: list[Color] = list(range(1, self.n))
        if self.e_bar is not None and self.f_bar is not None:
            out.append("b1")
        return out


def pairing(model: CrystalModel, i: int, b: Element) -> int:
    """<wt(b), h_i> = wt[i-1] - wt[i] (1-based color)."""
    wt = model.weight(b)
    return wt[i - 1] - wt[i]


def w_word(i: int) -> list[int]:
    """Reduced word with S_w = S_2..S_i S_1..S_{i-1}, used for color i-bar."""
    return list(range(2, i + 1)) + list(range(1, i))


def w0_word(n: int) -> list[int]:
    """Long element word: (1..n-1)(1..n-2)...(1)."""
    return [i for k in range(n - 1, 0, -1) for i in range(1, k + 1)]


# ---------------------------------------------------------------------------
# component closure and the edge graph

@dataclass
class CrystalGraph:
    model: CrystalModel
    vertices: list[Element]
    names: list[str]  # model.fmt of each vertex, the sort key
    # keyed by (color, source index) and built in source-index order, the
    # colors of each source 1..n-1 then "b1"; every reader iterates them
    # in that order.  e_edges come from the e-slots of model.arrows and
    # from model.e_bar, each computed by e's own rule independently of
    # f_edges, so mispaired arrows show up
    f_edges: dict[tuple[Color, int], int]
    e_edges: dict[tuple[Color, int], int]

    @property
    def colors(self) -> list[Color]:
        return self.model.colors

    def __len__(self) -> int:
        return len(self.vertices)


def _cap_from_env() -> int:
    text = os.environ.get("QCRYSTAL_MAX_VERTICES", str(DEFAULT_CAP))
    try:
        value = _int(text, "QCRYSTAL_MAX_VERTICES", text)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(
            f"QCRYSTAL_MAX_VERTICES must be an integer >= 1, not {text!r}")
    return value


def component(model: CrystalModel, seed: Element) -> CrystalGraph:
    """BFS closure of seed under all e/f arrows, as an explicit graph.

    One pass: every vertex gets an id when it is first reached, and its
    arrow row runs on it exactly once, then f_bar and e_bar; the targets
    are visited f then e of each color, the odd pair last, and kept as
    ids.  A row that does not hold 2(n-1) arrows is an InvariantError.
    Each e-slot is computed by e's own rule, never read off the
    f-arrows, so mispaired operators still fail gl4/q4.  model.validate
    runs on each vertex, the seed included, as it is first reached, so
    every operator output is checked once against the family, alphabet
    included.  A failure is an InvariantError: "seed is not in the family"
    on the seed, "operator left the family" on any other vertex.  A model
    with via = (proxy, lift) is closed on the proxy from lift's image of
    the seed; each vertex is checked against proxy.validate, then mapped
    back once and checked against model.validate, and the model's own odd
    pair, if any, must land where the proxy's b1 arrows do.
    Vertices are then sorted by their canonical encoding, so two runs over
    the same component produce identical graphs.  Raises CapExceeded if
    the closure grows past the cap (QCRYSTAL_MAX_VERTICES or 10**6).
    """
    cap = _cap_from_env()
    proxy, lift = model.via or (model, None)
    seed, back = lift(seed) if lift else (seed, None)
    ids: dict[Element, int] = {}
    found: list[Element] = []
    mapped: list[Element] = []  # found, mapped back

    def visit(c: Optional[Element],
              fault: str = "operator left the family") -> Optional[int]:
        if c is None:
            return None
        k = ids.get(c)
        if k is None:
            k = ids[c] = len(found)
            if k >= cap:
                raise CapExceeded(cap)
            msg = proxy.validate and proxy.validate(c)
            x = c
            if msg is None and back is not None:
                x = back(c)
                msg = model.validate and model.validate(x)
            if msg is not None:
                raise InvariantError(f"{fault}: {msg}")
            found.append(c)
            mapped.append(x)
        return k

    visit(seed, "seed is not in the family")

    width = 2 * (proxy.n - 1)
    arrows = []
    for b in found:
        row = proxy.arrows(b)
        if len(row) != width:
            raise InvariantError(f"{proxy.name} gave {len(row)} arrows at "
                                 f"{proxy.fmt(b)}, expected {width}")
        arrows.append((
            *map(visit, row),
            None if proxy.f_bar is None else visit(proxy.f_bar(b)),
            None if proxy.e_bar is None else visit(proxy.e_bar(b))))
    if back is not None and model.f_bar is not None:
        for x, row in zip(mapped, arrows):
            moved = tuple(None if k is None else mapped[k] for k in row[-2:])
            if (model.f_bar(x), model.e_bar(x)) != moved:
                raise InvariantError(
                    "odd operators disagree with transport at " + model.fmt(x))
    return _sorted_graph(model, mapped, arrows)


def _sorted_graph(model: CrystalModel, found: list,
                  arrows: list) -> CrystalGraph:
    """The graph on found, sorted by model.fmt.

    arrows[k] holds the f and then e target of each color of found[k]
    (the odd pair last) as indices into found, or None.  Each vertex is
    formatted once; the strings stay on the graph as its names.  Both
    arrow dicts are filled in sorted source order, and for each source in
    color order 1..n-1 then "b1": the one canonical arrow order.
    """
    keys = [model.fmt(b) for b in found]
    order = sorted(range(len(found)), key=keys.__getitem__)
    to_index = [0] * len(found)
    for u, k in enumerate(order):
        to_index[k] = u
    colors = [*range(1, model.n), "b1"]
    f_edges: dict[tuple[Color, int], int] = {}
    e_edges: dict[tuple[Color, int], int] = {}
    for u, k in enumerate(order):
        row = arrows[k]
        for color, down, up in zip(colors, row[::2], row[1::2]):
            if down is not None:
                f_edges[(color, u)] = to_index[down]
            if up is not None:
                e_edges[(color, u)] = to_index[up]
    return CrystalGraph(model, [found[k] for k in order],
                        [keys[k] for k in order], f_edges, e_edges)


# ---------------------------------------------------------------------------
# axiom checking

def _alpha(n: int, i: int) -> tuple[int, ...]:
    a = [0] * n
    a[i - 1] += 1
    a[i] -= 1
    return tuple(a)


def _fail(failures: list, graph: CrystalGraph, condition: str,
          color: Color, u: int, detail: str) -> None:
    """Record one axiom violation at vertex index u."""
    failures.append(
        {
            "condition": condition,
            "color": color,
            "vertex": graph.names[u],
            "detail": detail,
        }
    )


def _graph_strings(graph: CrystalGraph, colors) -> tuple[dict, dict]:
    """eps and phi of the given colors, read off the graph's arrows: the
    engine's one string walk.

    Both map (color, vertex index) to the length of the e- and f-string
    there; a pair whose string loops either way is left out, for gl1 to
    report and q5ii to skip.  A string that takes as many steps as the
    graph has vertices has revisited one, so it loops.
    """
    eps_g: dict[tuple[Color, int], int] = {}
    phi_g: dict[tuple[Color, int], int] = {}
    size = len(graph.vertices)
    for u in range(size):
        for i in colors:
            steps = []
            for edges in (graph.e_edges, graph.f_edges):
                x, k = u, 0
                while (i, x) in edges and k < size:
                    x, k = edges[(i, x)], k + 1
                steps.append(k)
            if max(steps) < size:
                eps_g[(i, u)], phi_g[(i, u)] = steps
    return eps_g, phi_g


def _arrow_axioms(graph: CrystalGraph, fail, colors, eps_g: dict,
                  phi_g: dict) -> None:
    """The arrow conditions on the e- and f-arrows of the given colors.

    Every e-arrow, then every f-arrow, must shift the weight by alpha_i
    (alpha_1 for "b1"), each root built once per call, and raise phi
    (along e) or eps (along f) by one where the strings are known at both
    ends; then every f-arrow, then every e-arrow, must be undone by an
    arrow of the other dict.  The colors name these three checks and the
    operators in the details: gl2, gl3, gl4 for the even colors, q3, q3,
    q4 and e_bar, f_bar for ("b1",).

    eps dropping along e and phi dropping along f are not checked: they
    cannot fail.  eps_g is the length of the e-chain read off these very
    arrows, so for an e-arrow u -> v with both chains finite the chain
    from u is u followed by the chain from v, and eps(u) = eps(v) + 1;
    likewise phi(u) = phi(v) + 1 along an f-arrow.
    """
    model = graph.model
    up_c, down_c, pair_c, bar = (("q3", "q3", "q4", "_bar") if "b1" in colors
                                 else ("gl2", "gl3", "gl4", ""))
    roots = {i: _alpha(model.n, 1 if i == "b1" else i) for i in colors}
    ups, downs = (
        [arrow for arrow in edges.items() if arrow[0][0] in colors]
        for edges in (graph.e_edges, graph.f_edges))
    # per operator: its condition, its arrows, the dict that must undo
    # them, and the string that must rise by one along them
    sides = ((up_c, "e", ups, graph.f_edges, "phi", phi_g),
             (down_c, "f", downs, graph.e_edges, "eps", eps_g))
    for cond, op, arrows, _, name, strings in sides:
        for (i, u), v in arrows:
            wu = model.weight(graph.vertices[u])
            wv = model.weight(graph.vertices[v])
            low, high = (wu, wv) if op == "e" else (wv, wu)
            if tuple(h - l for h, l in zip(high, low)) != roots[i]:
                fail(cond, i, u, f"{op}{bar} shifts weight {wu} -> {wv}")
            if ((i, u) in strings and (i, v) in strings
                    and strings[(i, v)] != strings[(i, u)] + 1):
                fail(cond, i, u, f"{name} does not rise by 1 along {op}")
    for _, op, arrows, inverse, *_ in reversed(sides):
        other = "f" if op == "e" else "e"
        for (i, u), v in arrows:
            if inverse.get((i, v)) != u:
                fail(pair_c, i, u,
                     f"{op}{bar}-arrow without matching {other}{bar}-arrow")


def check_gl_axioms(graph: CrystalGraph) -> dict:
    """Check the gl(n) crystal conditions on every vertex of the graph."""
    model = graph.model
    failures: list[dict] = []
    fail = partial(_fail, failures, graph)

    even = [i for i in graph.colors if isinstance(i, int)]
    eps_g, phi_g = _graph_strings(graph, even)
    for u in range(len(graph.vertices)):
        for i in even:
            if (i, u) not in eps_g:
                fail("gl1", i, u, "operator chain loops")
                continue
            ke, kf = eps_g[(i, u)], phi_g[(i, u)]
            p = pairing(model, i, graph.vertices[u])
            if kf != ke + p:
                fail("gl1", i, u, f"phi={kf}, eps={ke}, pairing={p}")
    _arrow_axioms(graph, fail, even, eps_g, phi_g)
    return {
        "suite": "gl-axioms",
        "checked": len(graph.vertices),
        "failures": failures,
    }


def check_q_axioms(graph: CrystalGraph) -> dict:
    """Check the q(n) crystal conditions (includes the gl(n) ones)."""
    model = graph.model
    report = check_gl_axioms(graph)
    report["suite"] = "q-axioms"
    fail = partial(_fail, report["failures"], graph)

    if "b1" not in model.colors:
        fail("q0", "b1", 0, "model lacks odd operators")
        return report
    for u, b in enumerate(graph.vertices):
        if any(x < 0 for x in model.weight(b)):
            fail("q2", "b1", u, f"negative weight {model.weight(b)}")
    _arrow_axioms(graph, fail, ("b1",), {}, {})

    # a missing arrow reads as the vertex None, which starts no arrow
    arrows = {"e": graph.e_edges, "f": graph.f_edges}
    e_bar = [(u, v) for (i, u), v in graph.e_edges.items() if i == "b1"]
    eps_g, phi_g = _graph_strings(graph, range(3, model.n))
    for i in range(3, model.n):
        for kind, odd in arrows.items():
            for ekind, ev in arrows.items():
                for u in range(len(graph.vertices)):
                    if (ev.get((i, odd.get(("b1", u))))
                            != odd.get(("b1", ev.get((i, u))))):
                        fail("q5i", i, u,
                             f"{kind}_bar1 and {ekind}_{i} do not commute")
        for u, v in e_bar:
            if (i, u) not in eps_g or (i, v) not in eps_g:
                continue
            if eps_g[(i, u)] != eps_g[(i, v)]:
                fail("q5ii", i, u, f"eps_{i} changes along e_bar")
            if phi_g[(i, u)] != phi_g[(i, v)]:
                fail("q5ii", i, u, f"phi_{i} changes along e_bar")
    return report


# ---------------------------------------------------------------------------
# extreme vertices

def _weyl(graph: CrystalGraph, word: Sequence[int], u: int) -> int:
    """S_{word[0]} S_{word[1]} ... on vertex index u, rightmost first.

    S_i takes <wt, h_i> steps along the f_i-arrows, or minus that many
    along the e_i-arrows.  A missing arrow is a ValueError: the graph is
    not a crystal there.
    """
    for i in reversed(word):
        k = pairing(graph.model, i, graph.vertices[u])
        edges = graph.f_edges if k >= 0 else graph.e_edges
        for _ in range(abs(k)):
            u = edges.get((i, u))
            if u is None:
                raise ValueError(f"S_{i} ran off the crystal")
    return u


def _is_q_highest(graph: CrystalGraph, u: int) -> bool:
    """No even e-arrow leaves u, and for every color i no e_bar-arrow
    leaves S_w u with w = w_word(i): the odd e of color i, i-bar, is
    e_bar conjugated by S_w, and S_w is a bijection."""
    colors = range(1, graph.model.n)
    return not any((i, u) in graph.e_edges for i in colors) and all(
        ("b1", _weyl(graph, w_word(i), u)) not in graph.e_edges
        for i in colors)


def _the_one(graph: CrystalGraph, which: str, found: list) -> Element:
    """The vertex of the only index in found; else one shared error."""
    if len(found) != 1:
        raise ValueError(
            f"expected one {which} vertex, found {len(found)}: "
            f"{[graph.names[u] for u in found]}"
        )
    return graph.vertices[found[0]]


def find_highest(graph: CrystalGraph) -> Element:
    """The unique vertex killed by every raising operator; ValueError
    if there is not exactly one, or if a Weyl walk runs off the graph."""
    return _the_one(graph, "highest", [
        u for u in range(len(graph)) if _is_q_highest(graph, u)])


def find_lowest(graph: CrystalGraph) -> Element:
    """The unique vertex carried to the highest one by S_{w_0};
    ValueError if there is not exactly one, or if a Weyl walk runs off
    the graph."""
    word = w0_word(graph.model.n)
    return _the_one(graph, "lowest", [
        u for u in range(len(graph))
        if _is_q_highest(graph, _weyl(graph, word, u))])


# ---------------------------------------------------------------------------
# export

def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(graph: CrystalGraph) -> str:
    """DOT text with one arrow per lowering operator, labeled by color."""
    names = [_dot_quote(name) for name in graph.names]
    lines = [f"digraph {graph.model.name} {{", "  rankdir=TB;"]
    lines += [f"  {name};" for name in names]
    for (color, u), v in graph.f_edges.items():
        lines.append(f"  {names[u]} -> {names[v]} [label=\"{color}\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json(graph: CrystalGraph) -> dict:
    """Plain-dict form: vertices, f-arrows, and weights, all canonical."""
    model = graph.model
    names = graph.names
    edges = [
        {"src": names[u], "color": color, "dst": names[v]}
        for (color, u), v in graph.f_edges.items()
    ]
    return {
        "vertices": list(names),
        "edges": edges,
        "weights": {names[u]: list(model.weight(b)) for u, b in enumerate(graph.vertices)},
    }
