import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_ptops as ref
from qcrystal import cli, engine, mixed, models, ptops, typeb, verify, words
from qcrystal import tableaux as tb


def all_words(n, m):
    return [
        tuple(w) for w in itertools.product(range(1, n + 1), repeat=m)
    ]


# ---------------------------------------------------------------------------
# odd operators


def test_e_bar1_pt_cases():
    assert ptops.e_bar1_pt(tb.parse_primed("2 2 2 / 3")) == tb.parse_primed(
        "1 2 2 / 3"
    )
    assert ptops.e_bar1_pt(tb.parse_primed("1 1 1 / 2")) is None
    assert ptops.e_bar1_pt(tb.parse_primed("1 2' 2 / 3")) == tb.parse_primed(
        "1 1 2 / 3"
    )
    assert ptops.e_bar1_pt(()) is None


def test_f_bar1_pt_cases():
    assert ptops.f_bar1_pt(tb.parse_primed("1 2 2 / 3")) == tb.parse_primed(
        "2 2 2 / 3"
    )
    assert ptops.f_bar1_pt(tb.parse_primed("1 1 1 / 2")) == tb.parse_primed(
        "1 1 2' / 2"
    )
    assert ptops.f_bar1_pt(tb.parse_primed("2 2 2 / 3")) is None
    # blocked: the cell right of the rightmost 1 holds 2'
    assert ptops.f_bar1_pt(tb.parse_primed("1 2' 2 / 3")) is None
    assert ptops.f_bar1_pt(()) is None


def test_odd_pt_ops_mutually_inverse():
    for shape in [(2,), (2, 1), (3, 1)]:
        for t in tb.enumerate_pt(3, shape):
            up = ptops.e_bar1_pt(t)
            if up is not None:
                assert ptops.f_bar1_pt(up) == t
            down = ptops.f_bar1_pt(t)
            if down is not None:
                assert ptops.e_bar1_pt(down) == t


# ---------------------------------------------------------------------------
# even operators


def test_f_even_pt_examples():
    assert ptops.f_even_pt(1, tb.parse_primed("1 1 1 / 2")) == tb.parse_primed(
        "1 1 2 / 2"
    )
    assert ptops.f_even_pt(2, tb.parse_primed("1 1 1 / 2")) == tb.parse_primed(
        "1 1 1 / 3"
    )
    assert ptops.f_even_pt(1, tb.parse_primed("2")) is None


def test_e_even_pt_inverse_of_f():
    n = 4
    for shape in tb.strict_partitions(7):
        if len(shape) > n:
            continue
        for t in tb.enumerate_pt(n, shape):
            for i in range(1, n):
                down = ptops.f_even_pt(i, t)
                if down is not None:
                    assert ptops.e_even_pt(i, down) == t
                up = ptops.e_even_pt(i, t)
                if up is not None:
                    assert ptops.f_even_pt(i, up) == t


def q_canon(shape):
    """Recording tableau with cells numbered row by row.

    This is a valid standard shifted tableau for every strict shape.
    """
    out, k = [], 0
    for part in shape:
        out.append(tuple(range(k + 1, k + part + 1)))
        k += part
    return tuple(out)


def test_q_canon():
    assert q_canon(()) == ()
    q = q_canon((5, 3, 1))
    assert q == ((1, 2, 3, 4, 5), (6, 7, 8), (9,))
    assert tb.validate_st(q) is None
    for shape in tb.strict_partitions(6):
        assert tb.validate_st(q_canon(shape)) is None


def transported_e(i, t):
    """The raising operator transported through mixed insertion."""
    return ptops.transport_op(t, q_canon(tb.shape_of(t)),
                              lambda w: words.e_even(i, w))


def test_e_even_pt_matches_transport_exhaustively():
    # every primed tableau with entries <= 4 and |shape| <= 7, every color
    n = 4
    cases = 0
    for shape in tb.strict_partitions(7):
        if len(shape) > n:
            continue
        for t in tb.enumerate_pt(n, shape):
            for i in range(1, n):
                assert ptops.e_even_pt(i, t) == transported_e(i, t), (i, t)
                cases += 1
    assert cases == 14280


@pytest.mark.parametrize("i,t,expect", [
    # the inverse ribbon is locally ambiguous here (B against D, or B
    # against 2b); the bracketing picks the preimage
    (2, "1 1 1 3' / 2 3 3", "1 1 1 3' / 2 2 3"),
    (2, "1 1 3' / 2 3' / 3", "1 1 2' / 2 3' / 3"),
    (2, "1 2' 3' / 3 3", "1 2' 3' / 2 3"),
    (1, "1 2' / 2", "1 1 / 2"),
    (2, "1 3' / 3", "1 2' / 3"),
    (1, "2 2", "1 2"),
])
def test_e_even_pt_hard_cases(i, t, expect):
    t, expect = tb.parse_primed(t), tb.parse_primed(expect)
    assert transported_e(i, t) == expect
    assert ptops.e_even_pt(i, t) == expect


def test_f_even_pt_weight_shift_and_validity():
    n = 3
    for shape in [(2, 1), (3, 1), (4,)]:
        for t in tb.enumerate_pt(n, shape):
            for i in (1, 2):
                out = ptops.f_even_pt(i, t)
                if out is None:
                    continue
                assert tb.validate_pt(out, n=n) is None
                wt, wo = tb.pt_weight(t, n), tb.pt_weight(out, n)
                diff = tuple(a - b for a, b in zip(wt, wo))
                expect = [0] * n
                expect[i - 1], expect[i] = 1, -1
                assert diff == tuple(expect)


# ---------------------------------------------------------------------------
# properties past the exhaustive bounds: n = 6, |shape| <= 10

PROPERTY_N = 6
PROPERTY_SHAPES = [s for s in tb.strict_partitions(10) if len(s) <= PROPERTY_N]


@st.composite
def reachable_pt(draw):
    """A primed tableau reached from the highest one by lowering steps."""
    t = ptops.highest_pt(PROPERTY_N, draw(st.sampled_from(PROPERTY_SHAPES)))
    colors = st.sampled_from(["b1", *range(1, PROPERTY_N)])
    # shorter walks stay near the highest tableau and rarely reach the
    # letter n; with at least 20 steps most examples do
    for color in draw(st.lists(colors, min_size=20, max_size=80)):
        down = (ptops.f_bar1_pt(t) if color == "b1"
                else ptops.f_even_pt(color, t))
        if down is not None:
            t = down
    return t


@settings(derandomize=True, max_examples=200, deadline=None)
@given(reachable_pt())
def test_even_pt_ops_properties(t):
    for i in range(1, PROPERTY_N):
        down = ptops.f_even_pt(i, t)
        if down is not None:
            assert ptops.e_even_pt(i, down) == t
        up = ptops.e_even_pt(i, t)
        assert up == transported_e(i, t)
        if up is not None:
            assert ptops.f_even_pt(i, up) == t


# ---------------------------------------------------------------------------
# the strip operators against the whole-tableau ones (reference_ptops)


def _outcome(op, *args):
    """op's answer, or the type of the exception it raised."""
    try:
        return op(*args)
    except Exception as exc:
        return type(exc)


def test_even_pt_ops_match_reference_exhaustively():
    # every primed tableau with entries <= 4 and |shape| <= 7, every color
    n, cases = 4, 0
    for shape in tb.strict_partitions(7):
        if len(shape) > n:
            continue
        for t in tb.enumerate_pt(n, shape):
            for i in range(1, n):
                assert ptops.f_even_pt(i, t) == ref.f_even_pt(i, t), (i, t)
                assert ptops.e_even_pt(i, t) == ref.e_even_pt(i, t), (i, t)
                cases += 1
    assert cases == 14280


def test_signed_ops_match_reference_exhaustively():
    # every signed primed tableau with entries <= 3 and |shape| <= 6
    n, cases = 3, 0
    for shape in tb.strict_partitions(6):
        if len(shape) > n:
            continue
        for t in tb.enumerate_pt(n, shape, diagonal_unprimed=False):
            for i in range(1, n):
                assert ptops.f_signed(i, t) == ptops._signed(
                    lambda s: ref.f_even_pt(i, s), t), (i, t)
                assert ptops.e_signed(i, t) == ptops._signed(
                    lambda s: ref.e_even_pt(i, s), t), (i, t)
                cases += 1
    assert cases == 2864


@st.composite
def arbitrary_rows(draw):
    """Any codes 1..10 (letters 1'..5) on a strict shape of size <= 8,
    tableau or not."""
    shape = draw(st.sampled_from(tb.strict_partitions(8)))
    return tuple(tuple(draw(st.lists(st.integers(1, 10), min_size=part,
                                     max_size=part)))
                 for part in shape)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(arbitrary_rows(), st.integers(1, 4))
def test_even_pt_ops_match_reference_on_any_rows(t, i):
    # the same answer, or the same exception type ("ribbon forks", ...)
    for op, oracle in [(ptops.f_even_pt, ref.f_even_pt),
                       (ptops.e_even_pt, ref.e_even_pt)]:
        assert _outcome(op, i, t) == _outcome(oracle, i, t)


class _WholeTableau(Exception):
    pass


def test_pt_closure_reads_only_strips(monkeypatch, capsys):
    # the even operators must not rebuild the whole cell map or tableau
    # (src/ has no whole reading word of a PT left to rebuild);
    # validate_pt runs once per vertex, and the graph command checks its
    # seed once more
    def banned(*args):
        raise _WholeTableau
    for name in ("cell_map", "from_cells"):
        monkeypatch.setattr(tb, name, banned)
    real, calls = tb.validate_pt, []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)
    monkeypatch.setattr(tb, "validate_pt", counting)
    g = engine.component(models.model_pt(4), ptops.highest_pt(4, (5, 3, 1)))
    assert (len(g.vertices), len(calls)) == (1280, 1280)
    calls.clear()
    assert cli.main(["graph", "--model", "pt", "--n", "4",
                     "--shape", "5,3,1"]) == 0
    assert capsys.readouterr().out.count(" -> ") == len(g.f_edges)
    assert len(calls) == 1281


# ---------------------------------------------------------------------------
# intertwining with insertion


@pytest.mark.parametrize("n,m", [(2, 4), (3, 3), (3, 4)])
def test_insertion_intertwines_operators(n, m):
    for w in all_words(n, m):
        p, _ = mixed.hm(w)
        for op_w, op_t in [
            (words.e_bar1, ptops.e_bar1_pt),
            (words.f_bar1, ptops.f_bar1_pt),
        ]:
            w2 = op_w(w)
            t2 = op_t(p)
            assert (w2 is None) == (t2 is None)
            if w2 is not None:
                assert mixed.hm(w2)[0] == t2
        for i in range(1, n):
            w2 = words.f_even(i, w)
            t2 = ptops.f_even_pt(i, p)
            assert (w2 is None) == (t2 is None)
            if w2 is not None:
                assert mixed.hm(w2)[0] == t2


# ---------------------------------------------------------------------------
# transport with arbitrary recording tableaux


def test_transport_independent_of_recording_tableau():
    n = 3
    for shape in [(2,), (3,), (2, 1), (3, 1), (4,)]:
        sts = tb.enumerate_st(shape)
        for t in tb.enumerate_pt(n, shape):
            expect_e = ptops.e_bar1_pt(t)
            expect_f = ptops.f_bar1_pt(t)
            expect_even = {i: ptops.f_even_pt(i, t) for i in (1, 2)}
            for q in sts:
                assert ptops.transport_op(t, q, words.e_bar1) == expect_e
                assert ptops.transport_op(t, q, words.f_bar1) == expect_f
                for i in (1, 2):
                    assert (
                        ptops.transport_op(
                            t, q, lambda w, i=i: words.f_even(i, w)
                        )
                        == expect_even[i]
                    )


def _word_ops(n):
    ops = [words.e_bar1, words.f_bar1]
    for i in range(1, n):
        ops += [lambda w, i=i: words.e_even(i, w),
                lambda w, i=i: words.f_even(i, w)]
    return ops


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hm_table_transport_equals_transport_op(n):
    # the forward-table transport of every word w and operator, against
    # transport_op on hm(w); misses are images outside the table
    missed = pairs = 0
    for size in range(1, 6):
        failures = []
        table = verify._hm_table(n, size, failures)
        assert failures == []
        assert sorted(table) == list(all_words(n, size))
        for w, op in itertools.product(table, _word_ops(n)):
            pairs += 1
            expect = ptops.transport_op(*mixed.hm(w), op)
            try:
                got = verify._hm_image(w, op, table)
            except ValueError as exc:
                missed += 1
                assert str(exc) == typeb.fmt_word(op(w)) + \
                    " is not in the hm table"
                continue
            assert got == expect, typeb.fmt_word(w)
    # one (w, op) per nonempty word of length <= 5 and operator
    assert pairs == 2 * n * sum(n ** k for k in range(1, 6))
    # the table holds the words over 1..n, which only f_bar1 at n = 1
    # leaves (1...1 -> 21...1), once per length
    assert missed == (5 if n == 1 else 0)


def test_hm_collision_is_a_witness(monkeypatch):
    # an hm that sends 21 to the pair of 12 is not injective, and its
    # three images miss one of the four pairs (t, q) of size 2
    real = mixed.hm
    monkeypatch.setattr(mixed, "hm",
                        lambda w: real((1, 2) if w == (2, 1) else w))
    failures = verify.check_pt_transport(2, 2)["failures"]
    assert [f for f in failures if f["op"] == "hm"] == failures[:2] == [
        {"check": "pt-transport", "op": "hm", "word": "21",
         "detail": "hm is not injective: same pair as 12"},
        {"check": "pt-transport", "op": "hm", "size": 2,
         "detail": "hm reaches 3 of 4 pairs (t, q)"}]


def test_word_operator_moving_q_is_a_witness(monkeypatch, capsys):
    # e_bar1 with its output reversed keeps the letters but not Q; that
    # is a failed check (exit 1), not an internal error
    real = words.e_bar1
    monkeypatch.setattr(words, "e_bar1",
                        lambda w: None if real(w) is None else real(w)[::-1])
    failures = verify.check_pt_transport(2, 3)["failures"]
    assert failures and all(f["op"] == "e_bar1" for f in failures)
    assert {"check": "pt-transport", "op": "e_bar1", "t": "2 2 2",
            "q": "1 2 3", "detail": "operator moved the recording tableau",
            } in failures
    assert cli.main(["verify", "--suite", "equivalence", "--n", "2",
                     "--max-size", "3"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out)["failures"][:len(failures)] == failures


def test_word_operator_leaving_the_table_is_a_witness(monkeypatch):
    # an image one letter longer is in no table of its length
    real = words.f_bar1
    monkeypatch.setattr(words, "f_bar1",
                        lambda w: None if real(w) is None else real(w) + (1,))
    failures = verify.check_pt_transport(2, 2)["failures"]
    assert {"check": "pt-transport", "op": "f_bar1", "t": "1", "q": "1",
            "detail": "21 is not in the hm table"} in failures
    assert {f["detail"] for f in failures} == {
        typeb.fmt_word(real(w) + (1,)) + " is not in the hm table"
        for k in (1, 2) for w in all_words(2, k) if real(w) is not None}


@pytest.mark.parametrize("n,checked", [(1, 0), (2, 186), (3, 1452)])
def test_pt_transport_counts(n, checked):
    # model_pt(1) has no even color and no odd pair, so n = 1 checks
    # nothing (f_bar1 would leave the alphabet 1..1)
    report = verify.check_pt_transport(n, 5)
    assert (report["checked"], report["failures"]) == (checked, [])


# ---------------------------------------------------------------------------
# signed variants


def test_signed_ops_empty_prime_type_match_plain():
    for t in tb.enumerate_pt(3, (2, 1)):
        assert ptops.e_signed("b1", t) == ptops.e_bar1_pt(t)
        assert ptops.f_signed(2, t) == ptops.f_even_pt(2, t)


def test_signed_ops_preserve_prime_type():
    for t in tb.enumerate_pt(2, (2, 1), diagonal_unprimed=False):
        for color in (1, "b1"):
            for op in (ptops.e_signed, ptops.f_signed):
                out = op(color, t)
                if out is not None:
                    assert tb.prime_type(out) == tb.prime_type(t)
                    assert (
                        tb.validate_pt(out, diagonal_unprimed=False) is None
                    )


def test_signed_ops_inverse():
    for t in tb.enumerate_pt(2, (2, 1), diagonal_unprimed=False):
        for color in (1, "b1"):
            up = ptops.e_signed(color, t)
            if up is not None:
                assert ptops.f_signed(color, up) == t


@pytest.mark.parametrize("ptype", [frozenset(), frozenset({1})])
def test_signed_rejects_an_inner_primed_diagonal(monkeypatch, ptype):
    # an inner output with a primed diagonal is still a valid signed
    # tableau once re-primed, so the vertex check cannot see it; _signed
    # must, whatever the prime type it restores
    monkeypatch.setattr(ptops, "f_bar1_pt", lambda t: tb.pr(t, {1}))
    t = tb.pr(ptops.highest_pt(2, (2, 1)), ptype)
    with pytest.raises(tb.InvariantError,
                       match="^operator primed the diagonal entry of row 1$"):
        ptops.f_signed("b1", t)


# ---------------------------------------------------------------------------
# extreme tableaux


def test_highest_pt():
    assert tb.fmt_primed(ptops.highest_pt(5, (5, 3, 1))) == "1 1 1 1 1 / 2 2 2 / 3"
    assert ptops.highest_pt(2, (2,)) == ((2, 2),)
    with pytest.raises(ValueError):
        ptops.highest_pt(2, (3, 2, 1))


def test_lowest_pt():
    assert tb.fmt_primed(ptops.lowest_pt(5, (5, 3, 1))) == "3 4' 4 5' 5 / 4 5' 5 / 5"
    assert tb.fmt_primed(ptops.lowest_pt(3, (3, 1))) == "2 3' 3 / 3"
    assert tb.fmt_primed(ptops.lowest_pt(2, (4, 1))) == "1 2' 2 2 / 2"
    with pytest.raises(ValueError):
        ptops.lowest_pt(1, (2, 1))


def test_extremes_are_killed_by_their_ops():
    n = 3
    for shape in [(2,), (2, 1), (3, 1)]:
        hi = ptops.highest_pt(n, shape)
        assert ptops.e_bar1_pt(hi) is None
        for i in (1, 2):
            assert ptops.e_even_pt(i, hi) is None
        lo = ptops.lowest_pt(n, shape)
        assert ptops.f_bar1_pt(lo) is None
        for i in (1, 2):
            assert ptops.f_even_pt(i, lo) is None
