"""The one-pass component closure against the two-pass reference."""

import dataclasses
import itertools

import pytest

import reference_closure as ref
from qcrystal import engine, models, typeb, words
from qcrystal import tableaux as tb


def assert_same_graph(got, want):
    assert got.vertices == want.vertices
    assert got.names == want.names
    assert list(got.f_edges.items()) == list(want.f_edges.items())
    assert list(got.e_edges.items()) == list(want.e_edges.items())


def compare_components(model, elements, oracle=None):
    """Close every element both ways; return the number of components.

    The reference closes oracle, the per-call form of a proxied model."""
    seen = set()
    count = 0
    for b in elements:
        if b in seen:
            continue
        got = engine.component(model, b)
        assert_same_graph(got, ref.component(oracle or model, b))
        seen.update(got.vertices)
        count += 1
    return count


def test_words_components_match_reference():
    model = models.model_words(3)
    count = 0
    for length in range(5):
        count += compare_components(
            model, itertools.product(range(1, 4), repeat=length))
    assert count == 1 + 1 + 1 + 2 + 3


def test_tableau_components_match_reference():
    n = 3
    count = 0
    for shape in tb.strict_partitions(5):
        if len(shape) > n:
            continue
        count += compare_components(models.model_pt(n),
                                    tb.enumerate_pt(n, shape))
        count += compare_components(models.model_ssdt(n),
                                    tb.enumerate_ssdt(n, shape),
                                    ref.model_ssdt(n))
        count += compare_components(
            models.model_spt(n),
            tb.enumerate_pt(n, shape, diagonal_unprimed=False))
    assert count == 44


def test_factorization_components_match_reference():
    # rank 3: m <= 2 up to length 5, m = 3 up to length 3; the full
    # m <= 3, length <= 5 sweep is too slow for the suite
    count = 0
    for perm in typeb.enumerate_perms(3):
        length = typeb.length(perm)
        for m in (1, 2, 3):
            if length > (3 if m == 3 else 5):
                continue
            count += compare_components(
                models.model_fact(m), typeb.enumerate_factorizations(perm, m),
                ref.model_fact(m))
    assert count == 201


def test_benchmark_ssdt_component_matches_per_call_closure():
    # graph-ssdt's component, closed on words through the reading word,
    # against the closure under the conjugated operators themselves
    seed = models.highest_ssdt(5, (5, 3, 1))
    got = engine.component(models.model_ssdt(5), seed)
    assert len(got) == 11200
    assert_same_graph(got, engine.component(ref.model_ssdt(5), seed))


@pytest.mark.parametrize("model,seed", [
    (models.model_words(3), (1, 1)),
    (models.model_pt(3), ((2, 2, 2), (4,))),
    (models.model_ssdt(3), ((2, 1), (1,))),
], ids=["words", "pt", "ssdt"])
def test_cap_fires_one_past_the_component(monkeypatch, model, seed):
    size = len(engine.component(model, seed))
    assert size > 1
    monkeypatch.setenv("QCRYSTAL_MAX_VERTICES", str(size))
    assert len(engine.component(model, seed)) == size
    monkeypatch.setenv("QCRYSTAL_MAX_VERTICES", str(size - 1))
    with pytest.raises(engine.CapExceeded):
        engine.component(model, seed)


@pytest.mark.parametrize("missing", ["e_bar", "f_bar"])
def test_one_odd_operator_matches_reference(missing):
    model = dataclasses.replace(models.model_words(3), **{missing: None})
    count = compare_components(
        model, itertools.product(range(1, 4), repeat=3))
    assert count > 0


def test_mispaired_e_still_fails_gl4():
    # e_1 forgets one arrow, so f_1 no longer has e_1 as its inverse; the
    # closure must apply e on its own for gl4 to see it
    base = models.model_words(2)
    broken = words.f_even(1, (1, 1))

    def e(i, w):
        return None if w == broken else words.e_even(i, w)

    model = dataclasses.replace(base, arrows=ref.arrow_row(2, words.f_even, e))
    g = engine.component(model, (1, 1))
    assert_same_graph(g, ref.component(model, (1, 1)))
    gl4 = [f for f in engine.check_gl_axioms(g)["failures"]
           if f["condition"] == "gl4"]
    assert gl4 == [{"condition": "gl4", "color": 1, "vertex": "11",
                    "detail": "f-arrow without matching e-arrow"}]
