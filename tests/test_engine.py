import dataclasses
import itertools

import pytest

import reference_weyl as ref
from qcrystal import engine, models, words
from qcrystal.typeb import fmt_word
from qcrystal.typeb import parse_word as W


def words_model(n):
    return engine.CrystalModel(
        n=n,
        e=words.e_even,
        f=words.f_even,
        weight=lambda w: words.weight(w, n),
        e_bar=words.e_bar1,
        f_bar=words.f_bar1,
        fmt=fmt_word,
        name="words",
    )


def all_words(n, m):
    return itertools.product(range(1, n + 1), repeat=m)


def test_eps_phi_frozen():
    model = words_model(2)
    assert ref.eps(model, 1, W("12")) == 1
    assert ref.phi(model, 1, W("12")) == 1
    assert engine.pairing(model, 1, W("12")) == 0
    assert ref.eps(model, 1, W("21")) == 0
    assert ref.phi(model, 1, W("1")) == 1


def test_string_identity_everywhere():
    model = words_model(3)
    for w in all_words(3, 4):
        for i in (1, 2):
            assert ref.phi(model, i, w) == ref.eps(model, i, w) + engine.pairing(
                model, i, w)


def test_weyl_words():
    assert engine.w_word(2) == [2, 1]
    assert engine.w_word(3) == [2, 3, 1, 2]
    assert engine.w0_word(2) == [1]
    assert engine.w0_word(3) == [1, 2, 1]
    assert engine.w0_word(4) == [1, 2, 3, 1, 2, 1]


def test_weyl_s():
    model = words_model(3)
    # zero pairing acts as the identity
    assert ref.weyl_s(model, 2, W("1")) == W("1")
    # S_1 on "1": pairing 1, one lowering step
    assert ref.weyl_s(model, 1, W("1")) == W("2")
    assert ref.weyl_s(model, 1, W("2")) == W("1")


def test_weyl_s_involution():
    model = words_model(3)
    for w in all_words(3, 3):
        for i in (1, 2):
            assert ref.weyl_s(model, i, ref.weyl_s(model, i, w)) == w


def test_weyl_w0_involution():
    model = words_model(3)
    w0 = engine.w0_word(3)
    for w in all_words(3, 3):
        assert ref.weyl_w(model, w0, ref.weyl_w(model, w0, w)) == w


def test_odd_e_bar_conjugated():
    model = words_model(3)
    assert ref.odd_e_bar(model, 2, W("32")) == W("22")
    assert ref.odd_e_bar(model, 1, W("21")) == W("11")
    assert ref.odd_f_bar(model, 1, W("11")) == W("21")


def test_odd_bars_mutually_inverse():
    model = words_model(3)
    for w in all_words(3, 3):
        for i in (1, 2):
            up = ref.odd_e_bar(model, i, w)
            if up is not None:
                assert ref.odd_f_bar(model, i, up) == w
            down = ref.odd_f_bar(model, i, w)
            if down is not None:
                assert ref.odd_e_bar(model, i, down) == w


def test_odd_bar_weight_shift():
    model = words_model(3)
    for w in all_words(3, 3):
        for i in (1, 2):
            up = ref.odd_e_bar(model, i, w)
            if up is None:
                continue
            wu = list(words.weight(w, 3))
            wu[i - 1] += 1
            wu[i] -= 1
            assert words.weight(up, 3) == tuple(wu)


def test_component_two_letters():
    model = words_model(2)
    g = engine.component(model, W("1"))
    assert [model.fmt(b) for b in g.vertices] == ["1", "2"]
    assert g.f_edges == {(1, 0): 1, ("b1", 0): 1}
    assert g.e_edges == {(1, 1): 0, ("b1", 1): 0}


def test_component_b22():
    model = words_model(2)
    g = engine.component(model, W("11"))
    assert sorted(model.fmt(b) for b in g.vertices) == ["11", "12", "21", "22"]
    assert engine.find_highest(g) == W("11")
    assert engine.find_lowest(g) == W("22")
    report = engine.check_q_axioms(g)
    assert report["failures"] == []
    assert report["checked"] == 4


def test_is_q_highest():
    model = words_model(3)
    assert ref.is_q_highest(model, W("111"))
    # "211" is gl-highest yet e_bar1 still raises it to "111"
    assert all(words.e_even(i, W("211")) is None for i in (1, 2))
    assert not ref.is_q_highest(model, W("211"))
    assert ref.is_q_highest(model, W("121"))
    assert not ref.is_q_highest(model, W("112"))
    # exactly two components in B_3^3, so exactly two highest words
    highs = [w for w in all_words(3, 3) if ref.is_q_highest(model, w)]
    assert highs == [W("111"), W("121")]


def test_axioms_all_components_b33():
    model = words_model(3)
    seen = set()
    for w in all_words(3, 3):
        if w in seen:
            continue
        g = engine.component(model, w)
        seen.update(g.vertices)
        report = engine.check_q_axioms(g)
        assert report["failures"] == [], report["failures"]


def test_tampered_graph_is_detected():
    model = words_model(2)
    g = engine.component(model, W("11"))
    # retarget one e-arrow; the independent f/e dicts must disagree now
    (key, old), = [((c, u), v) for (c, u), v in g.e_edges.items() if c == 1][:1]
    g.e_edges[key] = (old + 1) % len(g)
    report = engine.check_gl_axioms(g)
    assert any(f["condition"] == "gl4" for f in report["failures"])


def _q5ii_through_the_model(g):
    """q5ii with eps/phi computed by the model's operators, not the graph."""
    model, out = g.model, []
    for i in range(3, model.n):
        for (c, u), v in g.e_edges.items():
            if c != "b1":
                continue
            bu, bv = g.vertices[u], g.vertices[v]
            for name, string in (("eps", ref.eps), ("phi", ref.phi)):
                if string(model, i, bu) != string(model, i, bv):
                    out.append({"condition": "q5ii", "color": i,
                                "vertex": model.fmt(bu),
                                "detail": f"{name}_{i} changes along e_bar"})
    return out


def _failures(report, condition):
    return [f for f in report["failures"] if f["condition"] == condition]


def test_q5ii_planted_e_bar_changes_the_3_string():
    model = words_model(4)
    g = engine.component(model, W("11"))
    u = g.vertices.index(W("23"))
    assert model.fmt(g.vertices[g.e_edges[("b1", u)]]) == "13"
    # eps_3/phi_3 are 0/1 at 23 and 1/0 at 14
    g.e_edges[("b1", u)] = g.vertices.index(W("14"))
    report = engine.check_q_axioms(g)
    assert _failures(report, "q5ii") == [
        {"condition": "q5ii", "color": 3, "vertex": "23",
         "detail": "eps_3 changes along e_bar"},
        {"condition": "q5ii", "color": 3, "vertex": "23",
         "detail": "phi_3 changes along e_bar"},
    ] == _q5ii_through_the_model(g)
    assert _failures(report, "q3") and _failures(report, "q4")


def test_q5i_missing_odd_arrow_breaks_commutation():
    model = words_model(4)
    g = engine.component(model, W("11"))
    u, v = g.vertices.index(W("24")), g.vertices.index(W("14"))
    # the square 24 -e_3-> 23 -e_bar-> 13 loses its side 24 -e_bar-> 14,
    # so each of its four corners sees a pair that does not commute
    del g.e_edges[("b1", u)], g.f_edges[("b1", v)]
    report = engine.check_q_axioms(g)
    assert report["failures"] == [
        {"condition": "q5i", "color": 3, "vertex": vertex,
         "detail": f"{odd}_bar1 and {even}_3 do not commute"}
        for vertex, odd, even in (("24", "e", "e"), ("23", "e", "f"),
                                  ("14", "f", "e"), ("13", "f", "f"))
    ]
    assert _q5ii_through_the_model(g) == []


def test_broken_weight_model_fails_axioms():
    base = words_model(2)
    broken = engine.CrystalModel(
        n=2,
        e=base.e,
        f=base.f,
        weight=lambda w: tuple(reversed(words.weight(w, 2))),
        e_bar=base.e_bar,
        f_bar=base.f_bar,
        name="broken",
    )
    g = engine.component(broken, W("11"))
    report = engine.check_q_axioms(g)
    conditions = {f["condition"] for f in report["failures"]}
    assert conditions & {"gl1", "gl2", "gl3", "q3"}


def test_cap_exceeded(monkeypatch):
    monkeypatch.setenv("QCRYSTAL_MAX_VERTICES", "3")
    model = words_model(2)
    with pytest.raises(engine.CapExceeded) as exc:
        engine.component(model, W("11"))
    assert exc.value.cap == 3


def test_cap_from_env(monkeypatch):
    monkeypatch.setenv("QCRYSTAL_MAX_VERTICES", "3")
    model = words_model(2)
    with pytest.raises(engine.CapExceeded):
        engine.component(model, W("11"))


def test_to_dot():
    model = words_model(2)
    g = engine.component(model, W("1"))
    dot = engine.to_dot(g)
    assert dot == engine.to_dot(engine.component(model, W("2")))
    assert 'digraph words {' in dot
    assert '"1" -> "2" [label="1"];' in dot
    assert '"1" -> "2" [label="b1"];' in dot
    assert dot.endswith("}\n")


def test_to_json():
    model = words_model(2)
    g = engine.component(model, W("1"))
    obj = engine.to_json(g)
    assert obj["vertices"] == ["1", "2"]
    assert {"src": "1", "color": 1, "dst": "2"} in obj["edges"]
    assert {"src": "1", "color": "b1", "dst": "2"} in obj["edges"]
    assert obj["weights"] == {"1": [1, 0], "2": [0, 1]}


def test_find_highest_unique_failure():
    # a single flat vertex is its own highest and lowest; two disjoint
    # highest vertices cannot arise in one component, so the error path
    # runs on a hand-built graph of two flat vertices
    model = engine.CrystalModel(
        n=2,
        e=lambda i, b: None,
        f=lambda i, b: None,
        weight=lambda b: (0, 0),
        e_bar=lambda b: None,
        f_bar=lambda b: None,
        name="flat",
    )
    g = engine.component(model, "x")
    assert engine.find_highest(g) == "x"
    assert engine.find_lowest(g) == "x"
    two = engine.CrystalGraph(model, ["x", "y"], ["<x>", "<y>"], {}, {})
    for find, which in ((engine.find_highest, "highest"),
                        (engine.find_lowest, "lowest")):
        with pytest.raises(ValueError) as exc:
            find(two)
        assert str(exc.value) == (
            f"expected one {which} vertex, found 2: ['<x>', '<y>']")


def test_extremes_without_the_odd_pair():
    # both searches read the graph, so neither needs e_bar/f_bar
    model = dataclasses.replace(models.model_words(3), e_bar=None, f_bar=None)
    g = engine.component(model, (1, 2))
    assert engine.find_highest(g) == (1, 1)
    assert engine.find_lowest(g) == (3, 3)


# Whole reports on planted faults, order included, pinned as literals.
# Each plant is (arrow dict, colour, source, new target or None to drop)
# on the 16-vertex component of 11 in the n = 4 word crystal.  gl2's eps
# step and gl3's phi step are no longer checked, because they cannot
# fail: eps and phi are read off the same arrows they are checked along,
# so eps(v) = eps(u) - 1 holds on every e-arrow u -> v whose strings are
# both finite (and phi likewise along f).
_PLANTS = [("f", 1, "11", None), ("e", 2, "13", "24"), ("f", 3, "13", "13"),
           ("e", 3, "44", "33"), ("f", "b1", "11", "11"),
           ("e", "b1", "23", "14"), ("e", "b1", "21", "14")]

_PLANTED_REPORT = [
    ("gl1", 1, "11", "phi=0, eps=0, pairing=2"),
    ("gl1", 3, "13", "operator chain loops"),
    ("gl1", 3, "44", "phi=0, eps=1, pairing=-2"),
    ("gl2", 1, "12", "phi does not rise by 1 along e"),
    ("gl2", 2, "13", "e shifts weight (1, 0, 1, 0) -> (0, 1, 0, 1)"),
    ("gl2", 3, "44", "e shifts weight (0, 0, 0, 2) -> (0, 0, 2, 0)"),
    ("gl2", 3, "44", "phi does not rise by 1 along e"),
    ("gl3", 3, "13", "f shifts weight (1, 0, 1, 0) -> (1, 0, 1, 0)"),
    ("gl3", 3, "34", "eps does not rise by 1 along f"),
    ("gl4", 2, "12", "f-arrow without matching e-arrow"),
    ("gl4", 3, "13", "f-arrow without matching e-arrow"),
    ("gl4", 3, "34", "f-arrow without matching e-arrow"),
    ("gl4", 1, "12", "e-arrow without matching f-arrow"),
    ("gl4", 2, "13", "e-arrow without matching f-arrow"),
    ("gl4", 3, "14", "e-arrow without matching f-arrow"),
    ("gl4", 3, "44", "e-arrow without matching f-arrow"),
    ("q3", "b1", "21", "e_bar shifts weight (1, 1, 0, 0) -> (1, 0, 0, 1)"),
    ("q3", "b1", "23", "e_bar shifts weight (0, 1, 1, 0) -> (1, 0, 0, 1)"),
    ("q3", "b1", "11", "f_bar shifts weight (2, 0, 0, 0) -> (2, 0, 0, 0)"),
    ("q4", "b1", "11", "f_bar-arrow without matching e_bar-arrow"),
    ("q4", "b1", "13", "f_bar-arrow without matching e_bar-arrow"),
    ("q4", "b1", "21", "e_bar-arrow without matching f_bar-arrow"),
    ("q4", "b1", "23", "e_bar-arrow without matching f_bar-arrow"),
    ("q5i", 3, "21", "e_bar1 and e_3 do not commute"),
    ("q5i", 3, "23", "e_bar1 and e_3 do not commute"),
    ("q5i", 3, "24", "e_bar1 and e_3 do not commute"),
    ("q5i", 3, "23", "e_bar1 and f_3 do not commute"),
    ("q5i", 3, "13", "f_bar1 and f_3 do not commute"),
    ("q5ii", 3, "21", "eps_3 changes along e_bar"),
    ("q5ii", 3, "23", "eps_3 changes along e_bar"),
    ("q5ii", 3, "23", "phi_3 changes along e_bar"),
]


def _rows(report, suite, checked):
    assert list(report) == ["suite", "checked", "failures"]
    assert (report["suite"], report["checked"]) == (suite, checked)
    assert all(list(f) == ["condition", "color", "vertex", "detail"]
               for f in report["failures"])
    return [tuple(f.values()) for f in report["failures"]]


def test_planted_faults_whole_reports():
    g = engine.component(words_model(4), W("11"))
    index = {g.model.fmt(b): u for u, b in enumerate(g.vertices)}
    for kind, color, src, dst in _PLANTS:
        edges = g.e_edges if kind == "e" else g.f_edges
        if dst is None:
            del edges[(color, index[src])]
        else:
            edges[(color, index[src])] = index[dst]
    gl_part = [row for row in _PLANTED_REPORT if row[0].startswith("gl")]
    assert _rows(engine.check_gl_axioms(g), "gl-axioms", 16) == gl_part
    assert _rows(engine.check_q_axioms(g), "q-axioms", 16) == _PLANTED_REPORT


def test_negative_weight_and_missing_odd_pair_reports():
    model = words_model(4)
    shifted = dataclasses.replace(
        model, weight=lambda w: tuple(x - 1 for x in words.weight(w, 4)))
    assert _rows(engine.check_q_axioms(engine.component(shifted, W("1"))),
                 "q-axioms", 4) == [
        ("q2", "b1", "1", "negative weight (0, -1, -1, -1)"),
        ("q2", "b1", "2", "negative weight (-1, 0, -1, -1)"),
        ("q2", "b1", "3", "negative weight (-1, -1, 0, -1)"),
        ("q2", "b1", "4", "negative weight (-1, -1, -1, 0)"),
    ]
    even_only = engine.component(
        dataclasses.replace(model, e_bar=None, f_bar=None), W("1"))
    assert _rows(engine.check_gl_axioms(even_only), "gl-axioms", 4) == []
    assert _rows(engine.check_q_axioms(even_only), "q-axioms", 4) == [
        ("q0", "b1", "1", "model lacks odd operators")]
