import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_validators as ref
from qcrystal import typeb
from qcrystal.typeb import parse_word as W


def test_apply_word_example():
    assert typeb.apply_word(W("012013"), 4) == (3, -2, 4, -1)
    assert typeb.apply_word(W("012013")) == (3, -2, 4, -1)
    assert typeb.apply_word(W(""), 3) == (1, 2, 3)


def test_apply_gen():
    assert typeb.apply_gen((1, 2, 3), 0) == (-1, 2, 3)
    assert typeb.apply_gen((1, 2, 3), 2) == (1, 3, 2)
    with pytest.raises(ValueError):
        typeb.apply_gen((1, 2), 5)


def test_generators_square_to_identity():
    for perm in typeb.enumerate_perms(3):
        for i in range(3):
            assert typeb.apply_gen(typeb.apply_gen(perm, i), i) == perm


def test_length_example():
    assert typeb.length((3, -2, 4, -1)) == 6
    assert typeb.length((1, 2, 3)) == 0
    assert typeb.length((-1, 2)) == 1


def test_length_matches_cayley_distance():
    # BFS over the Cayley graph of W_B^n from the identity
    for n in (1, 2, 3):
        dist = {typeb.identity(n): 0}
        frontier = [typeb.identity(n)]
        while frontier:
            nxt = []
            for p in frontier:
                for i in range(n):
                    q = typeb.apply_gen(p, i)
                    if q not in dist:
                        dist[q] = dist[p] + 1
                        nxt.append(q)
            frontier = nxt
        assert len(dist) == 2**n * _factorial(n)
        for p, d in dist.items():
            assert typeb.length(p) == d


def _factorial(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def test_is_reduced():
    assert typeb.is_reduced(W("012013"))
    assert not typeb.is_reduced(W("00"))
    assert typeb.is_reduced(W(""))
    assert not typeb.is_reduced(W("11"))
    assert typeb.is_reduced(W("0121"))


def _outcome(f, *args):
    """f's value, or the type and message of what it raised."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


def test_is_reduced_matches_reference_exhaustively():
    # letters -1..4 against every rank 1..5 and the default rank, so the
    # range errors come first even after a descent, as apply_word raises
    for m in range(6):
        for w in itertools.product(range(-1, 5), repeat=m):
            for n in (None, 1, 2, 3, 4, 5):
                assert (_outcome(typeb.is_reduced, w, n)
                        == _outcome(ref.is_reduced, w, n)), (w, n)


def test_is_reduced_rank_zero():
    assert typeb.is_reduced((), 0)
    # apply_word fails on s_0 at rank 0 with an IndexError; the scan
    # names the generator like any other letter out of range
    with pytest.raises(ValueError, match="generator 0 out of range for rank 0"):
        typeb.is_reduced((0,), 0)
    with pytest.raises(ValueError, match="generator 1 out of range for rank 0"):
        typeb.is_reduced((1, 0), 0)


@st.composite
def reduced_walk_and_letter(draw):
    """A reduced word of rank <= 6 and length <= 13, grown by ascents (as
    the oracle judges them), then one more letter and the rank or None."""
    n = draw(st.integers(1, 6))
    w: tuple[int, ...] = ()
    for _ in range(draw(st.integers(0, 13))):
        ascents = [a for a in range(n) if ref.is_reduced(w + (a,), n)]
        if not ascents:
            break
        w += (draw(st.sampled_from(ascents)),)
    return w + (draw(st.integers(0, n - 1)),), draw(st.sampled_from((None, n)))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(reduced_walk_and_letter())
def test_is_reduced_matches_reference_property(case):
    w, n = case
    assert typeb.is_reduced(w, n) == ref.is_reduced(w, n)
    assert typeb.is_reduced(w[:-1], n)


def test_right_descents_match_reference_exhaustively():
    # every signed permutation of rank 1..5
    count = 0
    for n in range(1, 6):
        for perm in typeb.enumerate_perms(n):
            assert typeb.right_descents(perm) == ref.right_descents(perm), perm
            count += 1
    assert count == 4282


def test_enumerate_reduced_example():
    words = typeb.enumerate_reduced((3, 2, -1))
    assert words == [(0, 1, 2, 1), (0, 2, 1, 2), (2, 0, 1, 2)]


def test_enumerate_reduced_identity():
    assert typeb.enumerate_reduced((1, 2)) == [()]


def test_enumerate_reduced_properties():
    for perm in typeb.enumerate_perms(2):
        words = typeb.enumerate_reduced(perm)
        assert len(set(words)) == len(words)
        for w in words:
            assert len(w) == typeb.length(perm)
            assert typeb.apply_word(w, 2) == perm


def test_enumerate_reduced_complete():
    # every reduced word shows up: cross-check against brute force
    n, cap = 2, 4
    by_perm = {}
    for m in range(cap + 1):
        for w in itertools.product(range(n), repeat=m):
            if typeb.is_reduced(w, n):
                by_perm.setdefault(typeb.apply_word(w, n), set()).add(w)
    for perm, expect in by_perm.items():
        assert set(typeb.enumerate_reduced(perm)) == expect


def test_perm_text():
    assert typeb.parse_perm("3,-2,4,-1") == (3, -2, 4, -1)
    assert typeb.fmt_perm((3, -2, 4, -1)) == "3,-2,4,-1"
    with pytest.raises(ValueError):
        typeb.parse_perm("1,1")
    with pytest.raises(ValueError):
        typeb.parse_perm("2,3")
    with pytest.raises(ValueError, match="not an integer 'x' in permutation '1,x'"):
        typeb.parse_perm("1,x")


def test_word_text():
    assert typeb.parse_word("0121") == (0, 1, 2, 1)
    assert typeb.fmt_word((0, 1, 2, 1)) == "0121"
    with pytest.raises(ValueError):
        typeb.fmt_word((10,))
    with pytest.raises(ValueError, match="not a digit ' ' in word '0 1'"):
        typeb.parse_word("0 1")


# ---------------------------------------------------------------------------
# factorizations


def test_parse_factorization():
    assert typeb.parse_factorization("(+01)(-2013)") == (
        (1, (0, 1)),
        (-1, (2, 0, 1, 3)),
    )
    assert typeb.parse_factorization("()") == ((0, ()),)
    assert typeb.parse_factorization("(+01)()") == ((1, (0, 1)), (0, ()))


def test_parse_factorization_errors():
    with pytest.raises(ValueError):
        typeb.parse_factorization("(01)")  # missing sign
    with pytest.raises(ValueError):
        typeb.parse_factorization("(+)")  # sign without letters
    with pytest.raises(ValueError):
        typeb.parse_factorization("(+010)")  # not unimodal
    with pytest.raises(ValueError):
        typeb.parse_factorization("(+01")  # unclosed
    with pytest.raises(ValueError):
        typeb.parse_factorization("")


def test_fmt_factorization_roundtrip():
    for text in ["(+01)(-2013)", "()", "(+01)()", "()(-0)(+12)"]:
        assert typeb.fmt_factorization(typeb.parse_factorization(text)) == text


def test_fact_helpers():
    fact = typeb.parse_factorization("(+01)(-2013)")
    assert typeb.fact_word(fact) == (0, 1, 2, 0, 1, 3)
    assert typeb.fact_weight(fact) == (2, 4)


def test_enumerate_factorizations_identity():
    assert typeb.enumerate_factorizations((1, 2), 2) == [
        ((0, ()), (0, ()))
    ]


@pytest.mark.parametrize("m", [0, -1])
def test_enumerate_factorizations_rejects_m_below_one(m):
    with pytest.raises(ValueError, match="m must be at least 1"):
        typeb.enumerate_factorizations((3, 2, -1), m)


def test_fact_transport_reads_m_zero_as_given():
    # m = 0 is a bound to reject, not "no m given" (which checks m = 1..3)
    from qcrystal import verify
    with pytest.raises(ValueError, match="m must be at least 1"):
        verify.check_fact_transport(perm=(3, 2, -1), m=0)


def test_enumerate_factorizations_u3():
    facts = typeb.enumerate_factorizations((3, 2, -1), 3)
    assert len(facts) == len(set(facts))
    # 48 built on each of the words 0121 and 0212, 66 on 2012
    assert len(facts) == 162
    for fact in facts:
        assert typeb.apply_word(typeb.fact_word(fact), 3) == (3, 2, -1)
        typeb.check_factorization(fact)
    assert typeb.parse_factorization("(+2012)()()") in facts
    assert typeb.parse_factorization("(+01)()(-21)") in facts


def test_enumerate_factorizations_brute_force():
    # independent recount for a small case: enumerate all sign/cut choices
    perm, m = (-2, 1), 2
    words = typeb.enumerate_reduced(perm)
    count = 0
    for w in words:
        for cut in range(len(w) + 1):
            blocks = [w[:cut], w[cut:]]
            from qcrystal.tableaux import is_unimodal

            if all(is_unimodal(b) for b in blocks):
                count += 2 ** sum(1 for b in blocks if b)
    assert len(typeb.enumerate_factorizations(perm, m)) == count
