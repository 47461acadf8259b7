"""End-to-end acceptance checks.

Each test re-proves one structural fact at full desk scale and prints a
single summary line; run with -v (or -s) to see one line per criterion.
Timing bounds are generous ceilings for commodity hardware, asserted on
wall-clock time of the core computation only.
"""

import time

from qcrystal import engine
from qcrystal import factorization as fc
from qcrystal import kraskiewicz as kw
from qcrystal import mixed
from qcrystal import models
from qcrystal import ptops
from qcrystal import tableaux as tb
from qcrystal import typeb
from qcrystal import verify


def _best_of(repeats, fn):
    best = float("inf")
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return out, best


def _clean(report):
    assert report["failures"] == [], report["failures"][:5]
    return report["checked"]


def test_criterion_01_golden_mixed_insertion():
    word = typeb.parse_word("333323212")
    (p, q), dt = _best_of(5, lambda: mixed.hm(word))
    assert tb.fmt_primed(p) == "1 2' 2 3' 3 / 2 3' 3 / 3"
    assert tb.fmt_plain(q) == "1 2 3 4 6 / 5 7 9 / 8"
    assert dt < 1e-3, f"{dt * 1e3:.2f} ms"
    print(f"criterion 1 PASS: golden mixed insertion pair ({dt * 1e6:.0f} us)")


def test_criterion_02_golden_reduced_word_insertions():
    word = typeb.parse_word("012013")
    fact = typeb.parse_factorization("(+01)(-2013)")

    def both():
        return kw.kr(word), kw.pkr(fact)

    ((p, q), (pp, t)), dt = _best_of(5, both)
    assert tb.fmt_plain(p) == "2 0 1 3 / 0 1"
    assert tb.fmt_plain(q) == "1 2 3 6 / 4 5"
    assert pp == p
    assert tb.fmt_primed(t) == "1 1 2' 2 / 2' 2"
    assert dt < 1e-3, f"{dt * 1e3:.2f} ms"
    print(f"criterion 2 PASS: golden kr and pkr pairs ({dt * 1e6:.0f} us)")


def test_criterion_03_reduced_word_set():
    t0 = time.perf_counter()
    got = typeb.enumerate_reduced((3, 2, -1))
    dt = time.perf_counter() - t0
    assert {typeb.fmt_word(w) for w in got} == {"0121", "0212", "2012"}
    assert len(got) == 3
    assert dt < 1.0
    print(f"criterion 3 PASS: reduced words of (3,2,-1) ({dt:.3f} s)")


def test_criterion_04_component_of_33():
    seed = typeb.parse_factorization("(+2012)()()")
    t0 = time.perf_counter()
    g = engine.component(models.model_fact(3), seed)
    dt = time.perf_counter() - t0
    assert len(g.vertices) == 33
    assert dt < 10.0
    print(f"criterion 4 PASS: 33-vertex factor component ({dt:.2f} s)")


def test_criterion_05_extremes_match_search():
    t0 = time.perf_counter()
    checked = sum(_clean(verify.verify_highlow(n, size))
                  for n, size in ((1, 5), (2, 5), (3, 5), (4, 5), (4, 7)))
    dt = time.perf_counter() - t0
    assert tb.fmt_plain(models.highest_ssdt(4, (5, 3, 1))) == \
        "3 2 2 1 1 / 2 1 1 / 1"
    assert tb.fmt_plain(models.lowest_ssdt(4, (5, 3, 1))) == \
        "4 4 4 4 4 / 3 3 3 / 2"
    assert tb.fmt_primed(ptops.highest_pt(5, (5, 3, 1))) == \
        "1 1 1 1 1 / 2 2 2 / 3"
    assert tb.fmt_primed(ptops.lowest_pt(5, (5, 3, 1))) == \
        "3 4' 4 5' 5 / 4 5' 5 / 5"
    assert dt < 300.0
    print(f"criterion 5 PASS: {checked} extreme pairs match search ({dt:.1f} s)")


def test_criterion_06_recording_tableau_independence():
    t0 = time.perf_counter()
    checked = sum(_clean(verify.check_pt_transport(n, 5)) for n in (1, 2, 3))
    dt = time.perf_counter() - t0
    assert dt < 600.0
    print(f"criterion 6 PASS: {checked} transports are Q-independent ({dt:.1f} s)")


def test_criterion_07_factor_surgery_theorems():
    t0 = time.perf_counter()
    checked = _clean(verify.check_fact_transport(3, 5, 3))
    dt = time.perf_counter() - t0
    assert dt < 600.0
    print(f"criterion 7 PASS: {checked} odd factor ops match transport ({dt:.1f} s)")


def test_criterion_08_bijectivity():
    t0 = time.perf_counter()
    hm_checked = sum(_clean(verify.check_hm_roundtrip(n, 5)) for n in (1, 2, 3))
    kr_checked = sum(_clean(verify.check_kr_roundtrip(n, 6))
                     for n in (1, 2, 3, 4))
    pkr_checked = _clean(verify.check_pkr_roundtrip(3, 5, 3))
    # and at rank 4, past the sweep verify pins to rank 3
    pkr_checked += _clean(verify.check_pkr_roundtrip(4, 5, 3))
    dt = time.perf_counter() - t0
    print(f"criterion 8 PASS: round trips hm={hm_checked} kr={kr_checked} "
          f"pkr={pkr_checked} ({dt:.1f} s)")


def test_criterion_09_crystal_axioms():
    t0 = time.perf_counter()
    g = engine.component(models.model_fact(3),
                         typeb.parse_factorization("(+2012)()()"))
    _clean(engine.check_q_axioms(g))
    checked = sum(_clean(verify.verify_axioms(n, 5)) for n in (2, 3))
    # the odd/even commutations of condition (5) are vacuous below rank 4
    checked += _clean(verify.verify_axioms(4, 4))
    dt = time.perf_counter() - t0
    print(f"criterion 9 PASS: axioms on {checked} elements incl. rank 4 "
          f"({dt:.1f} s)")


def test_criterion_10_vee_lemma():
    t0 = time.perf_counter()
    # the kr round trip checks the lemma on each subword of its words
    report = verify.check_kr_roundtrip(3, 6)
    assert [f for f in report["failures"] if f["check"] == "vee"] == []
    words = list(verify._reduced_words(3, 6))
    checked = report["checked"] - len(words)
    assert checked == sum(len(w) * (len(w) + 1) // 2 for w in words) == 1201
    dt = time.perf_counter() - t0
    q = kw.kr(typeb.parse_word("012013"))[1]
    assert kw.vee_bottom(q, 3, 6) == 2
    print(f"criterion 10 PASS: vee lemma on {checked} subwords, "
          f"golden bottom 2 ({dt:.1f} s)")
