"""Factorization components closed on the recording tableau.

``engine.component(models.model_fact(m), seed)`` closes the signed primed
tableau component of the seed's recording tableau (the model's proxy)
and maps each vertex back through ``pkr_fibre``; the closure of
``reference_closure.model_fact(m)``, which applies the factorization
operators themselves, is its oracle.
"""

import pytest

import reference_closure as ref
from qcrystal import cli, engine, models, ptops, typeb
from qcrystal import factorization as fc
from qcrystal import kraskiewicz as kw
from qcrystal import tableaux as tb

GRAPH_FACT_ARGV = ["graph", "--model", "fact", "--perm", "2,-3,1", "--m", "4",
                   "--format", "json"]


def all_components(perm, m):
    """Seed, m and graph of every component of perm's factorizations."""
    out = []
    seen = set()
    for b in typeb.enumerate_factorizations(perm, m):
        if b not in seen:
            g = engine.component(models.model_fact(m), b)
            seen.update(g.vertices)
            out.append((b, m, g))
    return out


def rank3_components():
    """Seed and m of every rank-3 component with m <= 2, or m = 3 and
    length <= 4."""
    return [c for perm in typeb.enumerate_perms(3) for m in (1, 2, 3)
            if m < 3 or typeb.length(perm) <= 4
            for c in all_components(perm, m)]


@pytest.fixture(scope="module")
def components():
    out = rank3_components()
    seed = models.seed_factorization((2, -3, 1), 4)
    return out + [(seed, 4, engine.component(models.model_fact(4), seed))]


def test_components_match_oracle(components):
    assert len(components) == 194 + 79 + 1
    assert len(components[-1][2]) == 204
    for seed, m, g in components:
        want = engine.component(ref.model_fact(m), seed)
        assert g.model.name == want.model.name
        assert g.vertices == want.vertices
        assert list(g.f_edges.items()) == list(want.f_edges.items())
        assert list(g.e_edges.items()) == list(want.e_edges.items())


def test_components_pass_the_q_axioms(components):
    # the m = 4 component has color 3, so q5 is exercised
    for _, m, g in components:
        check = engine.check_q_axioms if m > 1 else engine.check_gl_axioms
        report = check(g)
        assert report["failures"] == []
        assert report["checked"] == len(g)


@pytest.fixture(scope="module")
def rank5_components():
    """Every component of 1,-5,2,3,4 with m = 2 and 3 and of -5,1,3,2,4
    with m = 3, and the greedy seed's component of 2,3,5,-1,4 with m = 4.
    Each reduced word uses all five generators s_0..s_4."""
    out = [c for perm, m in [((1, -5, 2, 3, 4), 2), ((1, -5, 2, 3, 4), 3),
                             ((-5, 1, 3, 2, 4), 3)]
           for c in all_components(perm, m)]
    seed = models.seed_factorization((2, 3, 5, -1, 4), 4)
    return out + [(seed, 4, engine.component(models.model_fact(4), seed))]


def test_rank5_components_match_oracle(rank5_components):
    assert len(rank5_components) == 2 + 2 + 6 + 1
    assert [len(g) for _, _, g in rank5_components] == [
        12, 12, 73, 73, 80, 80, 73, 73, 80, 80, 204]
    for seed, m, g in rank5_components:
        want = engine.component(ref.model_fact(m), seed)
        assert g.vertices == want.vertices
        assert list(g.f_edges.items()) == list(want.f_edges.items())
        assert list(g.e_edges.items()) == list(want.e_edges.items())


def test_rank5_components_pass_the_q_axioms(rank5_components):
    for _, _, g in rank5_components:
        report = engine.check_q_axioms(g)
        assert report["failures"] == []
        assert report["checked"] == len(g)


def test_identity_component_is_one_vertex():
    g = engine.component(models.model_fact(2), ((0, ()), (0, ())))
    assert g.vertices == [((0, ()), (0, ()))]
    assert g.f_edges == g.e_edges == {}


def test_seed_with_wrong_factor_count_rejected():
    with pytest.raises(ValueError, match="seed has 2 factors, expected 3"):
        engine.component(models.model_fact(3), ((1, (1,)), (0, ())))


def plant_disagreeing_surgery(monkeypatch, name):
    # the factor surgery forgets every arrow out of a nonempty factor one
    real = getattr(fc, name)

    def planted(fact):
        out = real(fact)
        return None if out is not None and fact[0][1] else out

    monkeypatch.setattr(fc, name, planted)


@pytest.mark.parametrize("name", ["f_bar1_fact", "e_bar1_fact"])
def test_odd_surgery_disagreeing_with_transport_raises(monkeypatch, name):
    plant_disagreeing_surgery(monkeypatch, name)
    seed = models.seed_factorization((2, -3, 1), 4)
    with pytest.raises(tb.InvariantError, match="odd operators disagree"):
        engine.component(models.model_fact(4), seed)


@pytest.mark.parametrize("name", ["f_bar1_fact", "e_bar1_fact"])
def test_odd_surgery_disagreeing_with_transport_exits_4(capsys, monkeypatch,
                                                        name):
    plant_disagreeing_surgery(monkeypatch, name)
    code = cli.main(GRAPH_FACT_ARGV)
    out, err = capsys.readouterr()
    assert code == 4
    assert out == ""
    assert err.startswith("internal error: odd operators disagree with "
                          "transport at (")
    assert err.count("\n") == 1


@pytest.mark.parametrize("cap,code", [("204", 0), ("203", 3)])
def test_cap_on_the_benchmark_component(capsys, monkeypatch, cap, code):
    monkeypatch.setenv("QCRYSTAL_MAX_VERTICES", cap)
    assert cli.main(GRAPH_FACT_ARGV) == code
    out, err = capsys.readouterr()
    if code:
        assert out == ""
        assert err == "error: component exceeded the vertex cap 203\n"
    else:
        assert err == ""


def plant_spt_fault(monkeypatch):
    """validate_pt fails one recording tableau of the benchmark component
    other than the seed's; returns that seed."""
    seed = models.seed_factorization((2, -3, 1), 4)
    _, t = kw.pkr(seed)
    bad = ptops.f_signed(1, t)
    assert bad is not None and bad != t
    real = tb.validate_pt
    monkeypatch.setattr(
        tb, "validate_pt",
        lambda rows, *args, **kwargs:
            "planted fault" if rows == bad else real(rows, *args, **kwargs))
    return seed


def test_proxy_fault_is_an_operator_fault_not_bad_input(monkeypatch):
    # the proxy's own check runs before pkr_fibre's inverse, whose check
    # would call the same tableau NotInImage, a ValueError
    seed = plant_spt_fault(monkeypatch)
    with pytest.raises(tb.InvariantError,
                       match="^operator left the family: planted fault$"):
        engine.component(models.model_fact(4), seed)


def test_proxy_fault_exits_4(capsys, monkeypatch):
    plant_spt_fault(monkeypatch)
    assert cli.main(GRAPH_FACT_ARGV) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: operator left the family: planted fault\n"
