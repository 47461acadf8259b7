"""verify inserts each element once: call counts of the documented run.

Re-inserting per element (a pkr per factorization, an hm_inverse and an
hm per transported tableau) changes no report, only the number of
insertion calls, so those of verify_all(3, 5) are pinned here.
"""

import collections

from qcrystal import kraskiewicz as kw
from qcrystal import mixed, ptops, typeb, verify
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


def test_verify_all_inserts_each_element_once(monkeypatch):
    fibres = _pkr_fibres(3, 5, 3)
    calls = collections.Counter()

    def count(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module, name in ((kw, "pkr"), (kw, "kr"), (kw, "pkr_inverse"),
                         (kw, "kr_inverse"), (mixed, "hm"),
                         (mixed, "hm_inverse"), (ptops, "transport_op")):
        count(module, name)
    report = verify.verify_all(3, 5)
    assert (report["checked"], report["failures"]) == (13519, [])
    # the PT transport reads one forward hm table per size, with no
    # fallback: one hm per word of length <= 5 there (the empty word
    # aside) and one in the hm round trip
    assert calls["transport_op"] == 0
    assert calls["hm"] == 364 + 363 == 727
    # only the hm round trip inverts, once per word of length <= 5
    assert calls["hm_inverse"] == sum(3 ** k for k in range(6)) == 364
    # one per P-fibre pair (3,203 factorizations) and one per kr_inverse
    assert calls["kr_inverse"] == 58
    assert calls["pkr_inverse"] == 3203 + 58
    # one pkr per P-fibre, plus those inside kr (kr round trip and vee)
    assert calls["pkr"] <= fibres + calls["kr"]
