"""The Weyl action and extreme vertices read off the graph, against the
model-based reference in reference_weyl."""

import dataclasses
import functools
import itertools

import pytest

import reference_closure as ref_closure
import reference_weyl as ref
from qcrystal import engine, models, typeb
from qcrystal import tableaux as tb


def memoized(model):
    """model with each operator cached: the reference walks the same
    strings many times, and the factorization operators are slow."""
    ops = {name: functools.cache(getattr(model, name))
           for name in ("arrows", "e_bar", "f_bar")
           if getattr(model, name) is not None}
    return dataclasses.replace(model, **ops)


def assert_graph_walk_matches(g, oracle=None):
    """find_highest/find_lowest, and S_i for every color and two longer
    Weyl words on every vertex, of g agree with the reference, which
    walks oracle (the per-call form of a proxied model) or g.model."""
    model, vertices = memoized(oracle or g.model), g.vertices
    words = [[i] for i in range(1, model.n)]
    words += [engine.w_word(model.n - 1), engine.w0_word(model.n)]
    for u, b in enumerate(vertices):
        for word in words:
            assert (vertices[engine._weyl(g, word, u)]
                    == ref.weyl_w(model, word, b)), (word, g.names[u])
    assert ref.find_highest(model, vertices) == [engine.find_highest(g)]
    assert ref.find_lowest(model, vertices) == [engine.find_lowest(g)]


def check_components(model, elements, oracle=None):
    """Run the comparison on every component of elements; count them."""
    seen = set()
    count = 0
    for b in elements:
        if b not in seen:
            g = engine.component(model, b)
            assert_graph_walk_matches(g, oracle)
            seen.update(g.vertices)
            count += 1
    return count


def test_word_components():
    model = models.model_words(3)
    count = sum(
        check_components(model, itertools.product(range(1, 4), repeat=k))
        for k in range(5))
    assert count == 1 + 1 + 1 + 2 + 3


@pytest.mark.parametrize("n,size,components", [
    (1, 5, 20), (2, 5, 44), (3, 5, 44), (4, 4, 28)])
def test_tableau_components(n, size, components):
    # PT, SSDT and SPT (every diagonal prime type) of each shape
    count = 0
    for shape in tb.strict_partitions(size):
        if len(shape) > n:
            continue
        count += check_components(models.model_pt(n), tb.enumerate_pt(n, shape))
        count += check_components(models.model_ssdt(n),
                                  tb.enumerate_ssdt(n, shape),
                                  ref_closure.model_ssdt(n))
        count += check_components(
            models.model_spt(n),
            tb.enumerate_pt(n, shape, diagonal_unprimed=False))
    assert count == components


def test_factorization_components():
    # rank 3, length <= 4, m in {2, 3}; closed on recording tableaux
    count = 0
    for perm in typeb.enumerate_perms(3):
        if typeb.length(perm) > 4:
            continue
        for m in (2, 3):
            count += check_components(models.model_fact(m),
                                      typeb.enumerate_factorizations(perm, m),
                                      ref_closure.model_fact(m))
    assert count == 158
