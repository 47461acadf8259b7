import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_closure as ref_closure
from qcrystal import words
from qcrystal.typeb import parse_word as W

from tensor_oracle import e_bar_tensor, e_tensor, f_bar_tensor, f_tensor


def all_words(n, m):
    return itertools.product(range(1, n + 1), repeat=m)


def test_weight_counts_letters():
    assert words.weight(W("1213"), 3) == (2, 1, 1)
    assert words.weight(W(""), 4) == (0, 0, 0, 0)
    assert words.weight(W("333323212"), 3) == (1, 3, 5)


def test_weight_rejects_out_of_range():
    with pytest.raises(ValueError):
        words.weight(W("14"), 3)


def test_even_operators_small_cases():
    assert words.f_even(1, W("1")) == W("2")
    assert words.f_even(1, W("21")) is None
    assert words.e_even(1, W("2")) == W("1")
    assert words.e_even(1, W("12")) == W("11")
    assert words.f_even(1, W("211")) == W("212")


def test_odd_operators_small_cases():
    assert words.e_bar1(W("321121")) == W("311121")
    assert words.f_bar1(W("1")) == W("2")
    assert words.f_bar1(W("21")) is None
    assert words.e_bar1(W("11")) is None
    assert words.e_bar1(W("3")) is None

def test_tuple_in_tuple_out():
    assert words.f_even(1, (2, 1, 1)) == (2, 1, 2)
    assert words.e_bar1((3, 2)) == (3, 1)
    # letter 10 stays one letter (its digit text would read as 1, 0)
    assert words.f_even(9, (9,)) == (10,)


@pytest.mark.parametrize("n,m", [(2, 1), (2, 4), (3, 3), (3, 5)])
def test_even_operators_match_tensor_oracle(n, m):
    for w in all_words(n, m):
        for i in range(1, n):
            assert words.e_even(i, w) == e_tensor(i, w), (i, w)
            assert words.f_even(i, w) == f_tensor(i, w), (i, w)


@pytest.mark.parametrize("n,m", [(2, 1), (2, 4), (3, 3), (3, 5), (3, 8)])
def test_odd_operators_match_tensor_oracle(n, m):
    for w in all_words(n, m):
        assert words.e_bar1(w) == e_bar_tensor(w), w
        assert words.f_bar1(w) == f_bar_tensor(w), w


@settings(derandomize=True, max_examples=50, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=12, max_size=12))
def test_operators_match_tensor_oracle_n6_length12(letters):
    # beyond the exhaustive cases above: n = 6, words of length 12.  The
    # oracle recurses on every prefix (tens of ms a word), so 50 examples
    w = tuple(letters)
    for i in range(1, 6):
        assert words.e_even(i, w) == e_tensor(i, w), i
        assert words.f_even(i, w) == f_tensor(i, w), i
    assert words.e_bar1(w) == e_bar_tensor(w)
    assert words.f_bar1(w) == f_bar_tensor(w)


def test_bracketing_matches_literal_pair_removal():
    # Within the subword of letters i and i+1, remove adjacent (i+1, i)
    # pairs until stable; what survives must be exactly the unbracketed
    # letters of the stack scan.
    def literal(i, letters):
        live = [p for p, a in enumerate(letters) if a in (i, i + 1)]
        changed = True
        while changed:
            changed = False
            for a, b in zip(range(len(live) - 1), range(1, len(live))):
                pa, pb = live[a], live[b]
                if letters[pa] == i + 1 and letters[pb] == i:
                    del live[b], live[a]
                    changed = True
                    break
        openers = [p for p in live if letters[p] == i + 1]
        closers = [p for p in live if letters[p] == i]
        return openers, closers

    for w in all_words(3, 5):
        for i in (1, 2):
            assert words.unbracketed(i, w) == literal(i, w), (i, w)


def _by_stack(raising):
    """e_i (raising) or f_i off words.unbracketed, the stack bracketing."""
    def op(i, w):
        openers, closers = words.unbracketed(i, w)
        picks = openers[:1] if raising else closers[-1:]
        if not picks:
            return None
        p = picks[0]
        return w[:p] + (i if raising else i + 1,) + w[p + 1:]
    return op


def test_arrows_match_stack_bracketing():
    # every word over 1..n, n <= 4, of length <= 5: the one-scan row
    # against the stack bracketing of each color, slot by slot
    rows = 0
    for n in range(1, 5):
        oracle = ref_closure.arrow_row(n, _by_stack(False), _by_stack(True))
        for m in range(6):
            for w in all_words(n, m):
                assert words.arrows(w, n) == oracle(w), w
                rows += 1
    assert rows == 6 + 63 + 364 + 1365


def test_odd_operators_mutually_inverse():
    for w in all_words(3, 4):
        up = words.e_bar1(w)
        if up is not None:
            assert words.f_bar1(up) == w
        down = words.f_bar1(w)
        if down is not None:
            assert words.e_bar1(down) == w
