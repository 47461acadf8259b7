"""Generic crystal machinery.

A crystal is described operationally by a CrystalModel: raising and
lowering maps e(i, b) / f(i, b) for the colors i = 1..n-1, a weight
function, and optionally the odd pair e_bar / f_bar (color "b1").
Elements may be any hashable values; fmt renders them canonically.  A
family that is another crystal under a new name sets via = (proxy, lift)
instead of e/f, and its arrows are the proxy's.

component is the only function that calls these operators: it closes
a seed into a CrystalGraph (BFS with a vertex cap) holding every arrow,
and checks each vertex once against the model's family (validate).
Everything else is read off that graph: the string lengths eps/phi, the
Weyl group action S_i and the odd colors i-bar (e_bar conjugated by
S_w), axiom checkers that report every violation, highest/lowest vertex
searches, and DOT/JSON export.  The arrow conditions (weight shift,
string step, e/f pairing) of the even colors and of "b1" are checked by
one helper, _arrow_axioms.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Hashable, Optional, Sequence, Union

from .tableaux import InvariantError

Element = Hashable
Color = Union[int, str]  # 1..n-1, or "b1" for the odd pair

DEFAULT_CAP = 10**6


class CapExceeded(Exception):
    """Component closure touched more vertices than allowed."""

    def __init__(self, cap: int):
        super().__init__(f"component exceeded the vertex cap {cap}")
        self.cap = cap


@dataclass(frozen=True)
class CrystalModel:
    n: int
    weight: Callable[[Element], tuple[int, ...]]
    e: Optional[Callable[[int, Element], Optional[Element]]] = None
    f: Optional[Callable[[int, Element], Optional[Element]]] = None
    e_bar: Optional[Callable[[Element], Optional[Element]]] = None
    f_bar: Optional[Callable[[Element], Optional[Element]]] = None
    fmt: Callable[[Element], str] = field(default=str)
    name: str = "crystal"
    # the family check: why an element is not in the family, or None
    validate: Optional[Callable[[Element], Optional[str]]] = None
    # (proxy, lift) in place of e/f: lift(seed) is the seed's image in the
    # proxy crystal and the map back; the arrows are the proxy's
    via: Optional[tuple["CrystalModel", Callable]] = None

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
    # in that order.  e_edges computed from model.e / model.e_bar
    # independently of f_edges, so mispaired arrows show up
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
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(
            f"QCRYSTAL_MAX_VERTICES must be an integer >= 1, not {text!r}")
    return value


def component(model: CrystalModel, seed: Element) -> CrystalGraph:
    """BFS closure of seed under all e/f arrows, as an explicit graph.

    One pass: every vertex gets an id when it is first reached, and f then
    e of each color (the odd pair last) runs on it exactly once, its
    targets kept as ids.  e is applied on its own, never read off the
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

    arrows = []
    for b in found:
        row = []
        for i in range(1, proxy.n):
            row += visit(proxy.f(i, b)), visit(proxy.e(i, b))
        row += (None if proxy.f_bar is None else visit(proxy.f_bar(b)),
                None if proxy.e_bar is None else visit(proxy.e_bar(b)))
        arrows.append(tuple(row))
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


def _vec_add(u: Sequence[int], v: Sequence[int]) -> tuple[int, ...]:
    return tuple(a + b for a, b in zip(u, v))


def _graph_string(graph: CrystalGraph, edges: dict, color: Color,
                  u: int) -> Optional[int]:
    """Length of the color chain from vertex u, or None if it loops."""
    k = 0
    seen = {u}
    while (color, u) in edges:
        u = edges[(color, u)]
        k += 1
        if u in seen:
            return None
        seen.add(u)
    return k


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
    """eps and phi of the given colors, read off the graph's arrows.

    Both map (color, vertex index) to the length of the e- and f-string
    there; a pair whose string loops is left out, for gl1 to report.
    """
    eps_g: dict[tuple[int, int], int] = {}
    phi_g: dict[tuple[int, int], int] = {}
    for u in range(len(graph.vertices)):
        for i in colors:
            ke = _graph_string(graph, graph.e_edges, i, u)
            kf = _graph_string(graph, graph.f_edges, i, u)
            if ke is not None and kf is not None:
                eps_g[(i, u)] = ke
                phi_g[(i, u)] = kf
    return eps_g, phi_g


def _arrow_axioms(graph: CrystalGraph, fail, colors, eps_g: dict,
                  phi_g: dict, conditions: tuple, bar: str) -> list:
    """The arrow conditions on the e- and f-arrows of the given colors.

    Every e-arrow, then every f-arrow, must shift the weight by alpha_i
    (alpha_1 for "b1") and raise phi (along e) or eps (along f) by one
    where the strings are known at both ends; then every f-arrow, then
    every e-arrow, must be undone by an arrow of the other dict.
    conditions names these three checks (gl2, gl3, gl4 or q3, q3, q4),
    and bar suffixes the operator names in the details.  Returns the
    e-arrows of those colors, in the graph's order.

    eps dropping along e and phi dropping along f are not checked: they
    cannot fail.  eps_g is the length of the e-chain read off these very
    arrows, so for an e-arrow u -> v with both chains finite the chain
    from u is u followed by the chain from v, and eps(u) = eps(v) + 1;
    likewise phi(u) = phi(v) + 1 along an f-arrow.
    """
    model = graph.model
    up_c, down_c, pair_c = conditions
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
            if high != _vec_add(low, _alpha(model.n, 1 if i == "b1" else i)):
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
    return ups


def check_gl_axioms(graph: CrystalGraph) -> dict:
    """Check the gl(n) crystal conditions on every vertex of the graph."""
    return _gl_axioms(graph)[0]


def _gl_axioms(graph: CrystalGraph) -> tuple[dict, dict, dict]:
    """check_gl_axioms' report, with the eps and phi it read off the
    graph (``_graph_strings`` of every even color)."""
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
    _arrow_axioms(graph, fail, even, eps_g, phi_g, ("gl2", "gl3", "gl4"), "")
    report = {"suite": "gl-axioms", "checked": len(graph.vertices),
              "failures": failures}
    return report, eps_g, phi_g


def check_q_axioms(graph: CrystalGraph) -> dict:
    """Check the q(n) crystal conditions (includes the gl(n) ones)."""
    model = graph.model
    report, eps_g, phi_g = _gl_axioms(graph)
    report["suite"] = "q-axioms"
    fail = partial(_fail, report["failures"], graph)

    if "b1" not in model.colors:
        fail("q0", "b1", 0, "model lacks odd operators")
        return report
    for u, b in enumerate(graph.vertices):
        if any(x < 0 for x in model.weight(b)):
            fail("q2", "b1", u, f"negative weight {model.weight(b)}")
    e_bar = _arrow_axioms(graph, fail, ("b1",), {}, {}, ("q3", "q3", "q4"),
                          "_bar")

    def compose(first: tuple, second: tuple, u: int) -> Optional[int]:
        edges1, c1 = first
        edges2, c2 = second
        v = edges1.get((c1, u))
        if v is None:
            return None
        return edges2.get((c2, v))

    odd_pairs = [(graph.e_edges, "b1"), (graph.f_edges, "b1")]
    for i in range(3, model.n):
        even_pairs = [(graph.e_edges, i), (graph.f_edges, i)]
        for odd in odd_pairs:
            for ev in even_pairs:
                for u in range(len(graph.vertices)):
                    left = compose(odd, ev, u)
                    right = compose(ev, odd, u)
                    if left != right:
                        kind = "e" if odd[0] is graph.e_edges else "f"
                        ekind = "e" if ev[0] is graph.e_edges else "f"
                        fail("q5i", i, u,
                             f"{kind}_bar1 and {ekind}_{i} do not commute")
        for (_, u), v in e_bar:
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
