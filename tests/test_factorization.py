import pytest

from qcrystal import factorization as fc
from qcrystal import kraskiewicz as kw
from qcrystal import ptops, typeb, verify
from qcrystal import tableaux as tb
from qcrystal.typeb import fmt_factorization as fmt
from qcrystal.typeb import parse_factorization as F

U3 = list(typeb.enumerate_factorizations((3, 2, -1), 3))


def test_odd_frozen_edges():
    assert fc.f_bar1_fact(F("(+201)(+2)()")) == F("(+20)(-12)()")
    assert fc.e_bar1_fact(F("(+20)(-12)()")) == F("(+201)(+2)()")
    assert fc.f_bar1_fact(F("(+2012)()()")) == F("(+201)(-2)()")
    assert fc.e_bar1_fact(F("(+201)(-2)()")) == F("(+2012)()()")
    assert fc.f_bar1_fact(F("(+0)(-1)(+21)")) is None


def test_even_frozen_edges():
    assert fc.f_fact(F("(+012)(+1)()"), 1) == F("(+02)(+12)()")
    assert fc.f_fact(F("(+012)(+1)()"), 2) == F("(+012)()(+1)")
    assert fc.f_fact(F("(+201)(-2)()"), 2) == F("(+201)()(-2)")
    assert fc.f_fact(F("(+201)(-2)()"), 1) == F("(+20)(-12)()")
    assert fc.f_fact(F("(+201)(+2)()"), 1) == F("(+20)(+12)()")
    assert fc.f_fact(F("(+201)(+2)()"), 2) == F("(+201)()(+2)")


def test_empty_factorization():
    empty = typeb.parse_factorization("()()()")
    assert fc.e_bar1_fact(empty) is None
    assert fc.f_bar1_fact(empty) is None
    assert fc.e_bar1_transport(empty) is None
    assert fc.f_bar1_transport(empty) is None


def test_single_factor_has_no_odd_ops():
    assert fc.e_bar1_fact(F("(+01)")) is None
    assert fc.f_bar1_fact(F("(+01)")) is None


def test_tuple_in_tuple_out():
    fact = typeb.parse_factorization("(+2012)()()")
    out = fc.f_bar1_fact(fact)
    assert out == typeb.parse_factorization("(+201)(-2)()")


def test_explicit_matches_transport_on_u3():
    for fact in U3:
        assert fc.e_bar1_fact(fact) == fc.e_bar1_transport(fact)
        assert fc.f_bar1_fact(fact) == fc.f_bar1_transport(fact)


def test_odd_ops_mutually_inverse_on_u3():
    for fact in U3:
        down = fc.f_bar1_fact(fact)
        if down is not None:
            assert fc.e_bar1_fact(down) == fact
        up = fc.e_bar1_fact(fact)
        if up is not None:
            assert fc.f_bar1_fact(up) == fact


def test_odd_ops_shift_weight():
    for fact in U3:
        wt = typeb.fact_weight(fact)
        down = fc.f_bar1_fact(fact)
        if down is not None:
            got = typeb.fact_weight(down)
            assert got == (wt[0] - 1, wt[1] + 1) + wt[2:]
        up = fc.e_bar1_fact(fact)
        if up is not None:
            got = typeb.fact_weight(up)
            assert got == (wt[0] + 1, wt[1] - 1) + wt[2:]


def test_results_stay_valid():
    for fact in U3[::7]:
        for i in (1, 2, "b1"):
            for op in (fc.e_fact, fc.f_fact):
                out = op(fact, i)
                if out is None:
                    continue
                typeb.check_factorization(out)
                assert len(out) == 3
                assert typeb.is_reduced(typeb.fact_word(out))


def test_even_ops_preserve_insertion_tableau():
    for fact in U3[::7]:
        p, _ = kw.pkr(fact)
        for i in (1, 2):
            out = fc.f_fact(fact, i)
            if out is not None:
                assert kw.pkr(out)[0] == p


def test_even_ops_mutually_inverse():
    for fact in U3[::5]:
        for i in (1, 2):
            down = fc.f_fact(fact, i)
            if down is not None:
                assert fc.e_fact(down, i) == fact


def test_string_round_trip():
    # text goes through the typeb codec; the operators answer with tuples
    out = fc.f_fact(F("(+012)(+1)()"), 1)
    assert isinstance(out, tuple)
    assert fmt(out) == "(+02)(+12)()"
    back = fc.e_fact(out, 1)
    assert fmt(back) == "(+012)(+1)()"


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        fc.f_bar1_fact(((1, (0, 0)), (0, ())))


# the (perm, m) pairs of check_fact_transport's default sweep
DEFAULT_SWEEP = [(p, m) for p in typeb.enumerate_perms(3)
                 if typeb.length(p) <= 5 for m in (1, 2, 3)]


@pytest.mark.parametrize("sweep, size", [(DEFAULT_SWEEP, 3203),
                                         ([((2, -3, 1), 3)], 192)],
                         ids=["default", "perm-2,-3,1-m-3"])
def test_fibre_table_equals_transport(monkeypatch, sweep, size):
    # every answer comes from the table: a miss would call pkr_inverse,
    # planted here to raise
    def miss(p, t, m):
        raise AssertionError(f"{tb.fmt_primed(t)} missed the table")

    facts = 0
    for perm, m in sweep:
        failures = []
        table_facts, read = verify._fibre_table(perm, m, failures)
        assert failures == []
        assert table_facts == list(typeb.enumerate_factorizations(perm, m))
        with monkeypatch.context() as planted:
            planted.setattr(kw, "pkr_inverse", miss)
            answers = [(read(fact, ptops.e_signed), read(fact, ptops.f_signed))
                       for fact in table_facts]
        for fact, (up, down) in zip(table_facts, answers):
            facts += 1
            assert up == fc.e_bar1_transport(fact), fmt(fact)
            assert down == fc.f_bar1_transport(fact), fmt(fact)
    assert facts == size


def test_non_injective_pkr_is_a_witness(monkeypatch):
    # a pkr that forgets T's primes sends two factorizations to one pair
    real = kw.pkr

    def unprimed(fact):
        p, t = real(fact)
        return p, tuple(tuple(tb.code(tb.code_value(v), False) for v in row)
                        for row in t)

    monkeypatch.setattr(kw, "pkr", unprimed)
    report = verify.check_fact_transport(perm=(2, -3, 1), m=3)
    assert report["checked"] == 2 * 192
    witnesses = [f for f in report["failures"] if f["op"] == "pkr"]
    assert witnesses[0] == {
        "check": "fact-transport", "op": "pkr", "fact": "(-1)(-2)(+101)",
        "detail": "pkr is not injective: same pair as (-1)(-2)(-101)"}
    for w in witnesses:
        assert w["check"] == "fact-transport"
        other = w["detail"].removeprefix("pkr is not injective: same pair as ")
        fact, other = F(w["fact"]), F(other)
        assert fact != other and unprimed(fact) == unprimed(other)
