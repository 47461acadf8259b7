import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_insertion as ref
from qcrystal import kraskiewicz as kw
from qcrystal import mixed, words
from qcrystal import tableaux as tb
from qcrystal.tableaux import InvariantError, NotInImage
from qcrystal.typeb import parse_word as W


def all_words(n, m):
    return list(itertools.product(range(1, n + 1), repeat=m))


def test_hm_golden():
    p, q = mixed.hm(W("333323212"))
    assert p == tb.parse_primed("1 2' 2 3' 3 / 2 3' 3 / 3")
    assert q == tb.parse_plain("1 2 3 4 6 / 5 7 9 / 8")


def test_hm_small():
    assert mixed.hm(W("1")) == (((2,),), ((1,),))
    p, q = mixed.hm(W("21"))
    assert p == tb.parse_primed("1 2'")
    assert q == tb.parse_plain("1 2")
    p, q = mixed.hm(W("11"))
    assert p == tb.parse_primed("1 1")
    assert q == tb.parse_plain("1 2")
    assert mixed.hm(W("")) == ((), ())


def test_hm_rejects_letters_below_one():
    with pytest.raises(ValueError, match="below 1"):
        mixed.hm(W("0"))
    with pytest.raises(ValueError, match="below 1"):
        mixed.hm(W("120"))


def test_text_is_not_a_word():
    # digit text must go through parse_word; raw strings raise
    with pytest.raises((TypeError, ValueError)):
        mixed.hm("12")
    with pytest.raises((TypeError, ValueError)):
        kw.kr("01")
    with pytest.raises((TypeError, ValueError)):
        kw.pkr("(+0)")


def test_hm_weight_and_shape():
    for w in all_words(3, 4):
        p, q = mixed.hm(w)
        assert tb.shape_of(p) == tb.shape_of(q)
        assert tb.validate_pt(p, n=3) is None
        assert tb.validate_st(q) is None
        assert tb.pt_weight(p, 3) == words.weight(w, 3)


def test_hm_injective():
    for n, m in [(2, 5), (3, 4)]:
        images = {mixed.hm(w) for w in all_words(n, m)}
        assert len(images) == n**m


@pytest.mark.parametrize("n,m", [(2, 1), (2, 3), (2, 5), (3, 3), (3, 4)])
def test_hm_roundtrip(n, m):
    for w in all_words(n, m):
        p, q = mixed.hm(w)
        assert mixed.hm_inverse(p, q) == w


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 6), max_size=14))
def test_hm_roundtrip_property(w):
    # past the exhaustive bounds above: length <= 14 over 1..6
    w = tuple(w)
    assert mixed.hm_inverse(*mixed.hm(w)) == w


def test_hm_inverse_golden():
    p = tb.parse_primed("1 2' 2 3' 3 / 2 3' 3 / 3")
    q = tb.parse_plain("1 2 3 4 6 / 5 7 9 / 8")
    assert mixed.hm_inverse(p, q) == W("333323212")
    assert mixed.hm_inverse(((2,),), ((1,),)) == (1,)
    assert mixed.hm_inverse((), ()) == ()


def test_hm_surjective_small():
    # every valid same-shape pair is hit: reverse then forward is identity
    n = 2
    for m in (1, 2, 3, 4):
        covered = set()
        for shape in set(_strict_partitions(m)):
            for p in tb.enumerate_pt(n, shape):
                for q in tb.enumerate_st(shape):
                    w = mixed.hm_inverse(p, q)
                    assert mixed.hm(w) == (p, q)
                    covered.add(w)
        assert covered == set(all_words(n, m))


def _strict_partitions(total, biggest=None):
    if biggest is None:
        biggest = total
    if total == 0:
        return [()]
    out = []
    for part in range(min(total, biggest), 0, -1):
        for rest in _strict_partitions(total - part, part - 1):
            out.append((part,) + rest)
    return out


def test_count_identity():
    # the image partitions B_n^m by shape: sum of |PT| * |ST| recounts n^m
    for n, m in [(2, 3), (3, 3), (2, 4)]:
        total = 0
        for shape in _strict_partitions(m):
            total += len(tb.enumerate_pt(n, shape)) * len(tb.enumerate_st(shape))
        assert total == n**m


def test_hm_inverse_rejects_bad_input():
    with pytest.raises(mixed.NotInImage):
        mixed.hm_inverse(tb.parse_primed("1 1"), tb.parse_plain("1"))
    with pytest.raises(mixed.NotInImage):
        mixed.hm_inverse(tb.parse_primed("2'"), tb.parse_plain("1"))
    with pytest.raises(mixed.NotInImage):
        mixed.hm_inverse(tb.parse_primed("1 1"), tb.parse_plain("2 1"))


# ---------------------------------------------------------------------------
# the one-rule insertion against the oracle with row and column branches

def _outcome(f, *args):
    try:
        return f(*args)
    except (NotInImage, InvariantError) as exc:
        return type(exc), str(exc)


def test_hm_matches_reference():
    # words over 1..4 include those over 1..n for every n <= 4; hm
    # validates only its final P, and both oracles validate every
    # intermediate P, one on the reference step and one on hm's own
    for m in range(7):
        for w in all_words(4, m):
            pair = mixed.hm(w)
            assert pair == ref.hm(w), w
            assert pair == ref.insert_word(mixed._insert, tb.validate_pt, w)


def test_hm_inverse_matches_reference():
    # primed and signed primed tableaux over 1'..4: the signed ones with a
    # primed diagonal are off the image
    pairs = 0
    for shape in tb.strict_partitions(5):
        sts = tb.enumerate_st(shape)
        for p in tb.enumerate_pt(4, shape, diagonal_unprimed=False):
            for q in sts:
                assert (_outcome(mixed.hm_inverse, p, q)
                        == _outcome(ref.hm_inverse, p, q)), (p, q)
                pairs += 1
    assert pairs == 4776


def _chains_agree(rows):
    """One reverse chain from every cell; returns the outcomes."""
    out = []
    for r, c in tb.shape_cells(tb.shape_of(rows)):
        got = _outcome(mixed._reverse_chain, rows, r, c)
        assert got == _outcome(ref._hm_reverse_chain, rows, r, c), (rows, r, c)
        out.append(got)
    return out


def test_reverse_chain_matches_reference_on_signed_tableaux():
    # one chain from every cell, corner or not
    for shape in tb.strict_partitions(6):
        for p in tb.enumerate_pt(4, shape, diagonal_unprimed=False):
            _chains_agree(p)


def test_reverse_chain_matches_reference_off_the_image():
    # fillings by 1'..3 with weakly increasing rows and columns, so that
    # every way a chain can fail is reached
    messages = set()
    for shape in tb.strict_partitions(5):
        cells = list(tb.shape_cells(shape))
        for values in itertools.product(range(1, 7), repeat=len(cells)):
            entry = dict(zip(cells, values))
            if any(entry[r, c] > entry.get((r, c + 1), 7)
                   or entry[r, c] > entry.get((r + 1, c), 7)
                   for r, c in cells):
                continue
            rows = tb.from_cells(shape, entry)
            for got in _chains_agree(rows):
                if got[0] is NotInImage:
                    messages.add(got[1].split(" for ")[0])
    assert messages == {
        "chain must start at the end of a row",
        "no row predecessor",
        "row chain traced back to the diagonal",
        "no column predecessor",
        "primed occupant on the diagonal",
        "column chain reached column 0",
    }
