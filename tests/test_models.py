import dataclasses
import os
import pathlib
import subprocess
import sys

import pytest

import reference_closure as ref_closure
import reference_weyl as ref
from qcrystal import engine, models, ptops, typeb, verify
from qcrystal import tableaux as tb


def test_model_words_component():
    model = models.model_words(2)
    g = engine.component(model, typeb.parse_word("1"))
    assert g.vertices == [(1,), (2,)]
    assert [model.fmt(b) for b in g.vertices] == ["1", "2"]


def test_model_pt_component_is_all_of_pt():
    model = models.model_pt(3)
    g = engine.component(model, ptops.highest_pt(3, (3, 1)))
    assert len(g.vertices) == 24
    assert set(g.vertices) == set(tb.enumerate_pt(3, (3, 1)))
    assert engine.find_highest(g) == ptops.highest_pt(3, (3, 1))
    assert engine.find_lowest(g) == ptops.lowest_pt(3, (3, 1))
    report = engine.check_q_axioms(g)
    assert report["failures"] == []


def test_model_ssdt_component_is_all_of_ssdt():
    model = models.model_ssdt(3)
    g = engine.component(model, models.highest_ssdt(3, (3, 1)))
    assert set(g.vertices) == set(tb.enumerate_ssdt(3, (3, 1)))
    assert len(g.vertices) == 24
    assert engine.find_highest(g) == models.highest_ssdt(3, (3, 1))
    assert engine.find_lowest(g) == models.lowest_ssdt(3, (3, 1))
    report = engine.check_q_axioms(g)
    assert report["failures"] == []


def test_ssdt_extremes():
    assert tb.fmt_plain(models.highest_ssdt(4, (5, 3, 1))) == \
        "3 2 2 1 1 / 2 1 1 / 1"
    assert tb.fmt_plain(models.lowest_ssdt(4, (5, 3, 1))) == \
        "4 4 4 4 4 / 3 3 3 / 2"
    assert models.highest_ssdt(3, (1,)) == ((1,),)
    assert models.lowest_ssdt(3, (1,)) == ((3,),)
    with pytest.raises(ValueError):
        models.highest_ssdt(2, (3, 2, 1))


def test_ssdt_extremes_are_extremal():
    # the library model has no operators of its own: read them per call
    model = ref_closure.model_ssdt(3)
    hi = models.highest_ssdt(3, (2, 1))
    lo = models.lowest_ssdt(3, (2, 1))
    assert ref.is_q_highest(model, hi)
    for i in range(1, 3):
        assert ref_closure.e_of(model, i, hi) is None
        assert ref_closure.f_of(model, i, lo) is None
    assert model.e_bar(hi) is None
    assert model.f_bar(lo) is None
    assert model.weight(hi) == (2, 1, 0)
    assert model.weight(lo) == (0, 1, 2)


def test_model_spt_component():
    model = models.model_spt(2)
    hi = ptops.highest_pt(2, (2, 1))
    g = engine.component(model, hi)
    assert set(g.vertices) == set(tb.enumerate_pt(2, (2, 1)))
    report = engine.check_q_axioms(g)
    assert report["failures"] == []
    # a primed diagonal seeds the sibling copy of the same crystal
    g2 = engine.component(model, tb.pr(hi, {1}))
    assert len(g2.vertices) == len(g.vertices)
    assert all(tb.prime_type(t) == frozenset({1}) for t in g2.vertices)


def test_model_fact_component_33():
    model = models.model_fact(3)
    seed = typeb.parse_factorization("(+2012)()()")
    g = engine.component(model, seed)
    assert len(g.vertices) == 33
    report = engine.check_q_axioms(g)
    assert report["failures"] == []


def test_seed_factorization():
    seed = models.seed_factorization((3, 2, -1), 3)
    assert typeb.fact_word(seed) in typeb.enumerate_reduced((3, 2, -1))
    assert len(seed) == 3
    seed1 = models.seed_factorization((2, 1), 1)
    assert typeb.fmt_factorization(seed1) == "(+1)"
    seed0 = models.seed_factorization((-1,), 1)
    assert typeb.fmt_factorization(seed0) == "(+0)"
    # needs two unimodal factors; the perm is printed as on the command line
    with pytest.raises(ValueError, match="^no factorization of -1,-2 into "
                                         "1 unimodal factors$"):
        models.seed_factorization((-1, -2), 1)


def test_model_fact_agrees_with_spt_counts():
    # factor crystals decompose like the signed tableau crystals they
    # insert into: |U_m(w)| = sum over distinct P of |SPT_m(shape P)|
    from qcrystal import kraskiewicz as kw

    perm = (3, 2, -1)
    m = 3
    facts = typeb.enumerate_factorizations(perm, m)
    ps = {kw.kr(word)[0] for word in typeb.enumerate_reduced(perm)}
    total = sum(
        sum(1 for _ in tb.enumerate_pt(m, tb.shape_of(p),
                                       diagonal_unprimed=False))
        for p in ps
    )
    assert len(ps) == 2
    assert total == len(facts) == 162


def test_proxied_models_have_no_operators_of_their_own():
    for model in (models.model_ssdt(3), models.model_fact(3)):
        assert model.e is None and model.f is None
        assert model.colors == model.via[0].colors == [1, 2, "b1"]
    assert models.model_ssdt(3).e_bar is None


def _recording_checks(monkeypatch):
    called = []
    for name in ("check_gl_axioms", "check_q_axioms"):
        real = getattr(engine, name)
        monkeypatch.setattr(engine, name, lambda g, name=name, real=real:
                            called.append(name) or real(g))
    return called


def test_model_fact_1_gets_gl_not_q0(monkeypatch):
    # one factor: neither the proxy nor the model has the odd pair
    model = models.model_fact(1)
    assert model.colors == []
    g = engine.component(model, models.seed_factorization((2, 1), 1))
    assert [f["condition"] for f in engine.check_q_axioms(g)["failures"]] \
        == ["q0"]
    called = _recording_checks(monkeypatch)
    failures = []
    facts = [f for perm in typeb.enumerate_perms(2)
             for f in typeb.enumerate_factorizations(perm, 1)]
    assert verify._check_axioms(model, facts, failures) == len(facts) > 0
    assert failures == []
    assert "check_q_axioms" not in called


def test_model_ssdt_gets_q_through_its_proxy(monkeypatch):
    # model_ssdt has no e_bar of its own; its colors are the word crystal's
    called = _recording_checks(monkeypatch)
    failures = []
    ssdt = tb.enumerate_ssdt(3, (2, 1))
    assert verify._check_axioms(models.model_ssdt(3), ssdt, failures) == 8
    assert failures == []
    # q runs the gl checks through their public name
    assert called == ["check_q_axioms", "check_gl_axioms"]


def _planted_fault(rows, n=None):
    return "planted fault"


def test_ssdt_operator_output_check_raises_invariant_error(monkeypatch):
    # the seed passes; the first operator output that engine.component
    # reaches fails the planted check
    model = models.model_ssdt(3)
    hi = models.highest_ssdt(3, (2, 1))
    monkeypatch.setattr(
        tb, "validate_ssdt",
        lambda rows, n=None: None if rows == hi else "planted fault")
    with pytest.raises(tb.InvariantError,
                       match="operator left the family: planted fault"):
        engine.component(model, hi)


def test_seed_outside_the_family_is_named_as_the_seed():
    # no operator produced the seed, so the error does not blame one
    seed = tb.parse_primed("2 1")
    msg = tb.validate_pt(seed)
    assert msg is not None
    with pytest.raises(tb.InvariantError) as exc:
        engine.component(models.model_pt(3), seed)
    assert str(exc.value) == f"seed is not in the family: {msg}"


def test_invariant_check_survives_optimize_flag():
    # under python -O every assert is stripped; the vertex check must not be
    script = (
        "from qcrystal import engine, models, tableaux as tb\n"
        "hi = ((2, 1), (1,))\n"
        "tb.validate_ssdt = (lambda rows, n=None:\n"
        "                    None if rows == hi else 'planted fault')\n"
        "try:\n"
        "    engine.component(models.model_ssdt(3), hi)\n"
        "except tb.InvariantError as exc:\n"
        "    print('raised', exc)\n"
    )
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised operator left the family: planted fault\n"


# each model, its validator on tableaux, a seed and its component's size
_VALIDATED = [
    ("model_ssdt", "validate_ssdt", models.highest_ssdt(4, (3, 1)), 80),
    ("model_pt", "validate_pt", ptops.highest_pt(4, (3, 1)), 80),
    ("model_spt", "validate_pt", tb.pr(ptops.highest_pt(4, (3, 1)), {2}), 80),
]


@pytest.mark.parametrize("builder, validator, seed, size", _VALIDATED,
                         ids=[case[0] for case in _VALIDATED])
def test_component_validates_each_distinct_output_once(
        monkeypatch, builder, validator, seed, size):
    # the family check is a pure function of the rows, so engine.component
    # checks each distinct operator output once; a second closure, with a
    # new model, checks again
    real = getattr(tb, validator)
    checked = []

    def counting(rows, *args, **kwargs):
        checked.append(rows)
        return real(rows, *args, **kwargs)

    monkeypatch.setattr(tb, validator, counting)
    for _ in range(2):
        checked.clear()
        model = getattr(models, builder)(4)
        outputs = set()
        # a proxied model's operator outputs are its proxy's, mapped back
        proxy, back = model, None
        if model.via is not None:
            proxy, lift = model.via
            _, back = lift(seed)
        proxy = dataclasses.replace(
            proxy, arrows=_recording_row(proxy.arrows, outputs), **{
                op: _recording(getattr(proxy, op), outputs)
                for op in ("e_bar", "f_bar")})
        model = (proxy if back is None
                 else dataclasses.replace(model, via=(proxy, lift)))
        g = engine.component(model, seed)
        if back is not None:
            outputs = set(map(back, outputs))
        assert len(g) == size
        assert outputs == set(g.vertices)
        assert sorted(checked) == sorted(outputs)


def _recording_row(arrows, outputs):
    def recorded(b):
        row = arrows(b)
        outputs.update(x for x in row if x is not None)
        return row
    return recorded


def _recording(op, outputs):
    def recorded(*args):
        out = op(*args)
        if out is not None:
            outputs.add(out)
        return out
    return recorded


def test_ssdt_output_that_fails_is_never_cached(monkeypatch):
    # the operators no longer check; the closure does, on every run
    hi = models.highest_ssdt(3, (2, 1))
    bad = ref_closure.f_of(ref_closure.model_ssdt(3), 1, hi)
    real = tb.validate_ssdt
    monkeypatch.setattr(
        tb, "validate_ssdt",
        lambda rows, n=None: "planted fault" if rows == bad else real(rows, n))
    model = models.model_ssdt(3)
    assert ref_closure.f_of(ref_closure.model_ssdt(3), 1, hi) == bad
    for m in (model, model, models.model_ssdt(3)):
        with pytest.raises(tb.InvariantError,
                           match="operator left the family: planted fault"):
            engine.component(m, hi)


def test_component_checks_odd_pt_outputs(monkeypatch):
    # an output reached only as f_bar1_pt's is checked like any other
    hi = ptops.highest_pt(3, (3, 1))
    bad = ptops.f_bar1_pt(hi)
    real = tb.validate_pt
    monkeypatch.setattr(
        tb, "validate_pt",
        lambda rows, *args, **kwargs:
            "planted fault" if rows == bad else real(rows, *args, **kwargs))
    with pytest.raises(tb.InvariantError,
                       match="^operator left the family: planted fault$"):
        engine.component(models.model_pt(3), hi)


@pytest.mark.parametrize("build", [ptops.highest_pt, ptops.lowest_pt,
                                   models.highest_ssdt, models.lowest_ssdt],
                         ids=lambda f: f.__name__)
def test_extreme_constructors_check_the_shape(build):
    with pytest.raises(ValueError,
                       match=r"^shape \(3, 2, 1\) has more than 2 rows$"):
        build(2, [3, 2, 1])
    with pytest.raises(ValueError,
                       match=r"^not a strict partition: \(2, 2\)$"):
        build(3, [2, 2])
    with pytest.raises(ValueError, match=r"^parts must be positive: \(2, 0\)$"):
        build(3, [2, 0])
    assert build(3, [2, 1]) == build(3, (2, 1))


@pytest.mark.parametrize("builder, text, msg", [
    ("model_pt", "1 3", "entry 3 at (1, 2) out of range"),
    ("model_spt", "1' 3'", "entry 3' at (1, 2) out of range"),
    ("model_ssdt", "3 1", "row 1 letter out of range 1..2"),
], ids=["pt", "spt", "ssdt"])
def test_tableau_models_validate_their_alphabet(builder, text, msg):
    # PT and SPT live over 1'..n (spt: m), SSDT over 1..n
    parse = tb.parse_plain if builder == "model_ssdt" else tb.parse_primed
    t = parse(text)
    assert getattr(models, builder)(3).validate(t) is None
    assert getattr(models, builder)(2).validate(t) == msg
    with pytest.raises(tb.InvariantError) as exc:
        engine.component(getattr(models, builder)(2), t)
    assert str(exc.value) == f"seed is not in the family: {msg}"


def test_out_of_alphabet_operator_fails_verify_axioms(monkeypatch):
    # an f_i of arrows_pt that writes the letter 4 at n = 3 stops the
    # closure with the family check, not with an IndexError from the weight
    real = ptops.arrows_pt

    def faulty(t, n):
        row = list(real(t, n))
        for k in range(0, len(row), 2):
            out = row[k]
            row[k] = None if out is None else (out[0][:-1] + (8,),) + out[1:]
        return tuple(row)

    monkeypatch.setattr(ptops, "arrows_pt", faulty)
    with pytest.raises(tb.InvariantError,
                       match="^operator left the family: entry 4 at "):
        verify.verify_axioms(3, 2)
