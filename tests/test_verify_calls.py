"""Each element is inserted once: call counts of the documented runs.

Re-inserting per element (a pkr per factorization, an hm_inverse and an
hm per transported tableau, a check of P per recording tableau) changes
no report or graph, only the number of insertion calls, so those of
verify_all(3, 5), in each of its two processes, and of the graph-fact
closure are pinned here.
"""

import collections

from qcrystal import engine, models, mixed, ptops, typeb, verify
from qcrystal import kraskiewicz as kw
from qcrystal import tableaux as tb


def _pkr_fibres(rank, max_len, max_m):
    """The (perm, m, P) of the pkr sweep with a nonempty fibre: P is the
    insertion tableau of a reduced word of perm, and the fibre holds one
    factorization per signed primed tableau of P's shape over 1'..m."""
    count = 0
    for perm in typeb.enumerate_perms(rank):
        if typeb.length(perm) > max_len:
            continue
        ps = {kw.kr(w)[0] for w in typeb.enumerate_reduced(perm)}
        count += sum(1 for p in ps for m in range(1, max_m + 1)
                     if tb.enumerate_pt(m, tb.shape_of(p),
                                        diagonal_unprimed=False))
    return count


def _count(monkeypatch, calls, names):
    """Count the calls of each (module, name), and as "inverse" those of
    the functions pkr_fibre returns."""
    def counted(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call

    for module, name in names:
        monkeypatch.setattr(module, name,
                            counted(name, getattr(module, name)))
    fibre = kw.pkr_fibre
    monkeypatch.setattr(kw, "pkr_fibre", lambda p, m: counted(
        "inverse", fibre(p, m)))


def test_verify_all_inserts_each_element_once(monkeypatch):
    # verify_all runs _child_suites in a forked child, whose calls these
    # counters do not see: the parent's share is pinned through
    # verify_all, the child's by the same function in-process, and the
    # pins hold for the two together
    fibres = _pkr_fibres(3, 5, 3)
    calls = collections.Counter()
    _count(monkeypatch, calls, (
        (kw, "pkr"), (kw, "kr"), (kw, "pkr_fibre"), (kw, "kr_inverse"),
        (kw, "validate_sdt"), (mixed, "hm"), (mixed, "hm_inverse"),
        (ptops, "transport_op")))
    report = verify.verify_all(3, 5)
    assert (report["checked"], report["failures"]) == (13519, [])
    parent = calls.copy()
    # the parent opens each P-fibre once, in the transport sweep, and the
    # pkr round trip reads those tables: no second table; the inverse
    # runs once per pair (3,203 factorizations)
    assert parent["pkr_fibre"] == fibres
    assert parent["inverse"] == 3203
    assert parent["validate_sdt"] == parent["pkr"] + parent["pkr_fibre"]
    calls.clear()
    verify._child_suites(3, 5)
    child = calls.copy()
    # the PT transport reads one forward hm table per size, with no
    # fallback: one hm per word of length <= 5 there (the empty word
    # aside) and one in the hm round trip
    assert child["hm"] == 364 + 363 == 727
    # only the hm round trip inverts, once per word of length <= 5
    assert child["hm_inverse"] == sum(3 ** k for k in range(6)) == 364
    # the kr round trip inserts each reduced word of length <= 5 once,
    # and the vee sweep reads Q off it
    assert child["kr"] == child["kr_inverse"] == 58
    # each kr_inverse is one pkr_fibre whose inverse runs once
    assert child["pkr_fibre"] == child["inverse"] == 58
    calls = parent + child
    assert calls["transport_op"] == 0
    assert (calls["hm"], calls["hm_inverse"]) == (727, 364)
    assert calls["kr"] == calls["kr_inverse"] == 58
    # one pkr_fibre per opened P-fibre and one per kr_inverse; its
    # inverse runs once per pair (3,203 factorizations) and per kr_inverse
    assert calls["pkr_fibre"] == fibres + 58
    assert calls["inverse"] == 3203 + 58
    # one pkr per P-fibre, plus those inside kr
    assert calls["pkr"] <= fibres + calls["kr"]
    # P is checked once per insertion and once per fibre, not per pair
    assert calls["validate_sdt"] == calls["pkr"] + calls["pkr_fibre"]


def test_fact_closure_checks_p_once_per_fibre(monkeypatch):
    # the graph-fact component: one pkr in the lift, one pkr_fibre for
    # its 204 vertices, so P is checked twice, not once per vertex
    calls = collections.Counter()
    _count(monkeypatch, calls, ((kw, "pkr"), (kw, "pkr_fibre"),
                                (kw, "pkr_inverse"), (kw, "validate_sdt")))
    seed = models.seed_factorization((2, -3, 1), 4)
    g = engine.component(models.model_fact(4), seed)
    assert len(g.vertices) == 204
    assert (calls["pkr"], calls["pkr_fibre"], calls["inverse"],
            calls["pkr_inverse"]) == (1, 1, 204, 0)
    assert calls["validate_sdt"] <= 2
