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
    # every answer comes from the table: a pair it lacks would call
    # pkr_fibre or pkr_inverse and a factorization it lacks pkr, all
    # planted to raise
    def miss(*args, **kwargs):
        raise AssertionError(f"{args} missed the table")

    facts = 0
    for perm, m in sweep:
        table_facts, table, pairs, roundtrip = verify._pkr_fibres(perm, m)
        assert roundtrip == (len(table_facts), [])
        assert table_facts == list(typeb.enumerate_factorizations(perm, m))
        with monkeypatch.context() as planted:
            planted.setattr(kw, "pkr_fibre", miss)
            planted.setattr(kw, "pkr_inverse", miss)
            planted.setattr(kw, "pkr", miss)
            answers = [tuple(verify._odd_transport(fact, op, m, table, pairs)
                             for op in (ptops.e_signed, ptops.f_signed))
                       for fact in table_facts]
        for fact, (up, down) in zip(table_facts, answers):
            facts += 1
            assert up == fc.e_bar1_transport(fact), fmt(fact)
            assert down == fc.f_bar1_transport(fact), fmt(fact)
    assert facts == size


def _primed_diagonal(t):
    return any(tb.code_primed(row[0]) for row in t)


def _unprimed_diagonal(t):
    return tuple((tb.code(tb.code_value(row[0]), False),) + row[1:]
                 for row in t)


def _plant_fibre(monkeypatch, answer):
    """pkr_fibre(p, m) answering T with answer(inverse, T), where inverse
    is the real pkr_fibre(p, m)."""
    real = kw.pkr_fibre

    def fibre(p, m):
        inverse = real(p, m)
        return lambda t: answer(inverse, t)

    monkeypatch.setattr(kw, "pkr_fibre", fibre)


def test_non_injective_pkr_is_a_witness(monkeypatch):
    # a recording that forgets the primes on T's diagonal sends two
    # factorizations to one pair; T stays a valid signed primed tableau
    # (forgetting every prime repeats an unprimed letter in a column, which
    # pkr's own check stops on)
    pair = F("(-1)(-2)(+101)"), F("(-1)(-2)(-101)")
    assert kw.pkr(pair[0]) != kw.pkr(pair[1])
    primed = {fmt(fact) for perm, m in DEFAULT_SWEEP
              for fact in typeb.enumerate_factorizations(perm, m)
              if _primed_diagonal(kw.pkr(fact)[1])}
    real = kw._record
    monkeypatch.setattr(kw, "_record", lambda boxes, fact:
                        _unprimed_diagonal(real(boxes, fact)))
    assert kw.pkr(pair[0]) == kw.pkr(pair[1])
    transport = verify.check_fact_transport(perm=(2, -3, 1), m=3)
    assert transport["checked"] == 2 * 192
    assert {f["fact"] for f in transport["failures"]} >= set(map(fmt, pair))
    # pkr_fibre's confirm records through the same _record, so it
    # rejects every pair with a primed diagonal, and the factorizations
    # inserting to one are missing from the tables
    roundtrip = verify.check_pkr_roundtrip(3, 5, 3)
    assert roundtrip["checked"] == 3203
    missed = [w for w in roundtrip["failures"] if "fact" in w]
    assert {w["fact"] for w in missed} == primed
    assert {w["detail"] for w in missed} == {"round trip failed"}
    for w in roundtrip["failures"]:
        if "t" in w:
            assert _primed_diagonal(tb.parse_primed(w["t"]))
            assert w["detail"] == "no factorization inserts to the pair"


def test_non_injective_pkr_inverse_is_a_witness(monkeypatch):
    # a pkr_fibre that forgets the primes on T's diagonal gives two
    # pairs one factorization of the same weight
    _plant_fibre(monkeypatch,
                 lambda inverse, t: inverse(_unprimed_diagonal(t)))
    _, _, pairs, (checked, witnesses) = verify._pkr_fibres((2, -3, 1), 3)
    assert checked == 192
    prefix = "pkr_inverse is not injective: same factorization as "
    doubled = [w for w in witnesses if "t" in w]
    assert doubled
    for w in doubled:
        t, first = w["t"], w["detail"].removeprefix(prefix)
        assert t != first
        assert (_unprimed_diagonal(tb.parse_primed(t))
                == _unprimed_diagonal(tb.parse_primed(first)))
    # what the doubled pairs should have reached is missing
    missed = {F(w["fact"]) for w in witnesses if "fact" in w}
    assert missed == (set(typeb.enumerate_factorizations((2, -3, 1), 3))
                      - pairs.keys())


def test_factorization_missing_from_its_table_is_a_witness(monkeypatch):
    # the factorizations that the doubled pairs should have reached are
    # in no pair of the table, so their transport is a witness naming
    # that, not a second insertion through pkr
    _plant_fibre(monkeypatch,
                 lambda inverse, t: inverse(_unprimed_diagonal(t)))
    _, _, pairs, _ = verify._pkr_fibres((2, -3, 1), 3)
    missed = set(typeb.enumerate_factorizations((2, -3, 1), 3)) - pairs.keys()
    assert missed
    failures = verify.check_fact_transport(perm=(2, -3, 1), m=3)["failures"]
    assert {(F(w["fact"]), w["op"]) for w in failures if w["detail"]
            == "factorization is not in the P-fibre table"} == {
        (fact, op) for fact in missed for op in ("e_bar1", "f_bar1")}


def test_pkr_inverse_image_outside_the_perm_is_a_witness(monkeypatch):
    # a pkr_fibre that reverses the factor order leaves the
    # factorizations of the perm; the union check names each image
    _plant_fibre(monkeypatch, lambda inverse, t: inverse(t)[::-1])
    facts = set(typeb.enumerate_factorizations((2, -3, 1), 3))
    _, _, pairs, (_, witnesses) = verify._pkr_fibres((2, -3, 1), 3)
    outside = [F(w["fact"]) for w in witnesses if w["detail"]
               == "pkr_inverse left the factorizations of 2,-3,1"]
    assert outside == sorted(pairs.keys() - facts)
    assert outside and all(fact[::-1] in facts for fact in outside)
    # reversed factors carry the reversed weight, which T's rarely is
    assert any(w["detail"] == "recording weight mismatch" for w in witnesses)


def test_pkr_reading_word_fault_is_a_witness(monkeypatch):
    # each fibre's P must read as a word of the perm
    monkeypatch.setattr(kw, "rw_sdt", lambda p: ())
    _, _, _, (_, witnesses) = verify._pkr_fibres((2, -3, 1), 3)
    assert witnesses
    assert ({w["detail"] for w in witnesses}
            == {"reading word changes the permutation"})


def test_pkr_factor_number_above_m_is_a_witness(monkeypatch):
    # a pkr that records factor m + 1 (code 2m + 2) in T's last first-row
    # cell gives a pair outside the fibre table: a witness, not a bare
    # IndexError from reading T's weight over 1..m
    real = kw.pkr

    def overflow(fact):
        p, t = real(fact)
        return p, t and (t[0][:-1] + (2 * len(fact) + 2,),) + t[1:]

    monkeypatch.setattr(kw, "pkr", overflow)
    report = verify.check_pkr_roundtrip(3, 5, 3)
    assert report["checked"] == 3203
    assert report["failures"]
    assert {w["detail"] for w in report["failures"]} == {"round trip failed"}
