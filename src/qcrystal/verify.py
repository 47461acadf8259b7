"""Exhaustive small-scale checks of the structural theorems.

Each check walks a finite family (words, tableaux, reduced words,
factorizations) and records every violation as a witness dict, so a
report is useful even when something breaks.  Reports have the shape
``{"suite": str, "checked": int, "failures": [ ... ]}``; a run passes
iff ``failures`` is empty.  The fine-grained ``check_*`` functions take
explicit bounds; the ``verify_*`` wrappers bundle them for the CLI.
"""

import dataclasses
import functools
import itertools

from . import engine
from . import factorization as fc
from . import kraskiewicz as kw
from . import mixed
from . import models
from . import ptops
from . import tableaux as tb
from . import typeb
from . import words


def _report(suite: str, checked: int, failures: list) -> dict:
    return {"suite": suite, "checked": checked, "failures": failures}


def _merge(suite: str, reports) -> dict:
    checked = sum(r["checked"] for r in reports)
    failures = [f for r in reports for f in r["failures"]]
    return _report(suite, checked, failures)


def _disagreement(explicit, transported, x):
    """None if explicit(x) == transported(x), else why not: the message of
    the ValueError either raised, or that they differ."""
    try:
        if explicit(x) == transported(x):
            return None
    except ValueError as exc:
        return str(exc)
    return "transport disagrees with the rule"


def _all_words(n: int, length: int):
    return itertools.product(range(1, n + 1), repeat=length)


def _components(model, vertices):
    """Partition an iterable of elements into crystal components."""
    seen = set()
    for v in vertices:
        if v in seen:
            continue
        g = engine.component(model, v)
        seen.update(g.vertices)
        yield g


def _check_axioms(model, vertices, failures):
    checked = 0
    check = (engine.check_q_axioms if "b1" in model.colors
             else engine.check_gl_axioms)
    for g in _components(model, vertices):
        rep = check(g)
        checked += rep["checked"]
        failures.extend(rep["failures"])
    return checked


# ---------------------------------------------------------------------------
# suite: axioms

def verify_axioms(n: int = 3, max_size: int = 5, corrupt: bool = False) -> dict:
    """Crystal axioms on every component of words, PT, SSDT, and SPT
    families up to the given size.

    ``corrupt`` deliberately breaks the word model's weight function and
    is expected to produce failures (a negative control for the harness).
    """
    failures: list = []
    checked = 0
    model = models.model_words(n)
    if corrupt:
        model = dataclasses.replace(
            model, weight=lambda w: tuple(reversed(words.weight(w, n)))
        )
    for m in range(1, max_size + 1):
        checked += _check_axioms(model, _all_words(n, m), failures)
    for shape in tb.strict_partitions(max_size):
        if len(shape) > n:
            continue
        checked += _check_axioms(
            models.model_pt(n), tb.enumerate_pt(n, shape), failures)
        checked += _check_axioms(
            models.model_ssdt(n), tb.enumerate_ssdt(n, shape), failures)
        checked += _check_axioms(
            models.model_spt(n),
            tb.enumerate_pt(n, shape, diagonal_unprimed=False), failures)
    return _report("axioms", checked, failures)


# ---------------------------------------------------------------------------
# suite: bijections

def check_hm_roundtrip(n: int, max_len: int) -> dict:
    """Mixed insertion is a weight-preserving bijection on all words."""
    failures = []
    checked = 0
    for m in range(max_len + 1):
        for w in _all_words(n, m):
            checked += 1
            try:
                p, q = mixed.hm(w)  # checks P and Q itself
                if tb.validate_pt(p, n=n):
                    raise ValueError("invalid image tableau")
                if tb.pt_weight(p, n) != words.weight(w, n):
                    raise ValueError("weight not preserved")
                # hm_inverse returns only words that insert to (p, q), so
                # the round trip also proves injectivity
                back = mixed.hm_inverse(p, q)
                if back != w:
                    raise ValueError(f"round trip gave {back}")
            except ValueError as exc:
                failures.append({"check": "hm", "word": typeb.fmt_word(w),
                                 "detail": str(exc)})
    return _report("hm-roundtrip", checked, failures)


def _reduced_words(n: int, max_len: int):
    for m in range(max_len + 1):
        for w in itertools.product(range(n), repeat=m):
            if typeb.is_reduced(w, n):
                yield w


def check_kr_roundtrip(n: int, max_len: int) -> dict:
    """Reduced-word insertion round-trips; images are decomposition
    tableaux of the same permutation; fibers over one insertion tableau
    carry every standard recording tableau exactly once."""
    failures = []
    checked = 0
    fibers: dict = {}
    for w in _reduced_words(n, max_len):
        checked += 1
        try:
            p, q = kw.kr(w)  # checks P and Q itself
            msg = kw.validate_sdt(p, n=n)
            if msg:
                raise ValueError(msg)
            if typeb.apply_word(kw.rw_sdt(p), n) != typeb.apply_word(w, n):
                raise ValueError("reading word changes the permutation")
            if kw.kr_inverse(p, q) != w:
                raise ValueError("round trip failed")
            fibers.setdefault((typeb.apply_word(w, n), p), set()).add(q)
        except ValueError as exc:
            failures.append({"check": "kr", "word": w, "detail": str(exc)})
    for (perm, p), qs in fibers.items():
        if typeb.length(perm) > max_len:
            continue  # R(perm) not fully enumerated at this bound
        expect = set(tb.enumerate_st(tb.shape_of(p)))
        if qs != expect:
            failures.append({
                "check": "kr-fiber", "perm": perm, "p": tb.fmt_plain(p),
                "detail": f"fiber has {len(qs)} of {len(expect)} tableaux",
            })
    return _report("kr-roundtrip", checked, failures)


def check_pkr_roundtrip(rank: int, max_len: int, max_m: int) -> dict:
    """Primed insertion round-trips on every signed factorization."""
    failures = []
    checked = 0
    for perm in typeb.enumerate_perms(rank):
        if typeb.length(perm) > max_len:
            continue
        for m in range(1, max_m + 1):
            for fact in typeb.enumerate_factorizations(perm, m):
                checked += 1
                try:
                    p, t = kw.pkr(fact)  # checks P and T itself
                    msg = kw.validate_sdt(p, n=rank)
                    if msg:
                        raise ValueError(msg)
                    if tb.pt_weight(t, m) != typeb.fact_weight(fact):
                        raise ValueError("recording weight mismatch")
                    if kw.pkr_inverse(p, t, m=m) != fact:
                        raise ValueError("round trip failed")
                except ValueError as exc:
                    failures.append({
                        "check": "pkr",
                        "fact": typeb.fmt_factorization(fact),
                        "detail": str(exc),
                    })
    return _report("pkr-roundtrip", checked, failures)


def check_vee(rank: int, max_len: int) -> dict:
    """A contiguous subword is unimodal iff its recording cells form a
    vee, for every reduced word within the bound."""
    failures = []
    checked = 0
    for w in _reduced_words(rank, max_len):
        if not w:
            continue
        _, q = kw.kr(w)
        for i in range(1, len(w) + 1):
            for j in range(i, len(w) + 1):
                checked += 1
                uni = tb.is_unimodal(w[i - 1:j])
                bottom = kw.vee_bottom(q, i, j)
                if uni != (bottom is not None):
                    failures.append({
                        "check": "vee", "word": w, "i": i, "j": j,
                        "detail": f"unimodal={uni} bottom={bottom}",
                    })
    return _report("vee", checked, failures)


def verify_bijections(n: int = 3, max_size: int = 5) -> dict:
    """Round-trips for all three insertions plus the vee lemma.

    The primed insertion sweep is pinned to rank 3, length 5, m 3 (the
    scale the factor theorems are verified at); the others follow the
    given bounds.
    """
    return _merge("bijections", [
        check_hm_roundtrip(n, max_size),
        check_kr_roundtrip(n, max_size),
        check_vee(min(n, 3), max_size),
        check_pkr_roundtrip(min(n, 3), min(max_size, 5), 3),
    ])


# ---------------------------------------------------------------------------
# suite: equivalence

def check_pt_transport(n: int, max_size: int) -> dict:
    """Explicit tableau operators match insertion transport for every
    recording tableau (so the transported action is Q-independent)."""
    failures = []
    checked = 0
    for shape in tb.strict_partitions(max_size):
        if len(shape) > n:
            continue
        sts = tb.enumerate_st(shape)
        ops = [("e_bar1", ptops.e_bar1_pt, words.e_bar1),
               ("f_bar1", ptops.f_bar1_pt, words.f_bar1)]
        for i in range(1, n):
            ops.append((f"f_{i}", lambda t, i=i: ptops.f_even_pt(i, t),
                        lambda w, i=i: words.f_even(i, w)))
        for t in tb.enumerate_pt(n, shape):
            for name, pt_op, word_op in ops:
                rule = functools.cache(pt_op)  # once per t, not per q
                for q in sts:
                    checked += 1
                    detail = _disagreement(
                        rule, lambda s: ptops.transport_op(s, q, word_op), t)
                    if detail is not None:
                        failures.append({
                            "check": "pt-transport", "op": name,
                            "t": tb.fmt_primed(t), "q": tb.fmt_plain(q),
                            "detail": detail,
                        })
    return _report("pt-transport", checked, failures)


def _fibre_table(perm, m: int, failures: list):
    """The factorizations of perm into m factors, and a reader of their
    odd transports.

    pkr runs once per factorization, and the table maps each image (P, T)
    back to its factorization; a second factorization with the same image
    is a witness that pkr is not injective.  The transport of fact under
    the signed operator op is table[(P, op("b1", T))], or None when op is
    undefined or leaves the entries <= m.  A T2 the table lacks goes to
    pkr_inverse(P, T2), whose error is then the witness, and a
    factorization that pkr rejected gets pkr's error again.
    """
    facts = list(typeb.enumerate_factorizations(perm, m))
    images: dict = {}
    table: dict = {}
    for fact in facts:
        try:
            images[fact] = image = kw.pkr(fact)
        except ValueError:
            continue  # read calls pkr again, for the same error
        first = table.setdefault(image, fact)
        if first != fact:
            failures.append({
                "check": "fact-transport", "op": "pkr",
                "fact": typeb.fmt_factorization(fact),
                "detail": ("pkr is not injective: same pair as "
                           + typeb.fmt_factorization(first)),
            })

    def read(fact, op):
        p, t = images[fact] if fact in images else kw.pkr(fact)
        t2 = fc.within(op("b1", t), m)
        if t2 is None:
            return None
        hit = table.get((p, t2))
        return kw.pkr_inverse(p, t2, m=m) if hit is None else hit

    return facts, read


def check_fact_transport(rank: int = 3, max_len: int = 5,
                         max_m: int = 3, perm=None, m=None) -> dict:
    """Explicit odd factor surgery matches insertion transport, read off
    one pkr per factorization (``_fibre_table``)."""
    failures = []
    checked = 0
    perms = [tuple(perm)] if perm else [
        p for p in typeb.enumerate_perms(rank) if typeb.length(p) <= max_len
    ]
    for perm_ in perms:
        ms = [m] if m is not None else range(1, max_m + 1)
        for mm in ms:
            facts, read = _fibre_table(perm_, mm, failures)
            for fact in facts:
                checked += 2
                for name, explicit, op in (
                    ("e_bar1", fc.e_bar1_fact, ptops.e_signed),
                    ("f_bar1", fc.f_bar1_fact, ptops.f_signed),
                ):
                    detail = _disagreement(
                        explicit, lambda x: read(x, op), fact)
                    if detail is not None:
                        failures.append({
                            "check": "fact-transport", "op": name,
                            "fact": typeb.fmt_factorization(fact),
                            "detail": detail,
                        })
    if perm and not checked:
        bound = f"m = {m}" if m is not None else f"m <= {max_m}"
        raise ValueError(f"perm {typeb.fmt_perm(tuple(perm))} has no "
                         f"factorization with {bound}: nothing to check")
    return _report("fact-transport", checked, failures)


def verify_equivalence(n: int = 3, max_size: int = 5,
                       perm=None, m=None) -> dict:
    """Both operator-equivalence theorems: on primed tableaux for every
    recording tableau, and on factorizations (rank 3, length <= 5)."""
    reports = []
    if perm is None:
        reports.append(check_pt_transport(min(n, 3), max_size))
    reports.append(check_fact_transport(
        3, min(max_size, 5), 3, perm=perm, m=m))
    return _merge("equivalence", reports)


# ---------------------------------------------------------------------------
# suite: highlow

def verify_highlow(n: int = 3, max_size: int = 5) -> dict:
    """Closed-form extreme tableaux against graph search, and
    connectedness of each tableau family."""
    failures = []
    checked = 0
    for shape in tb.strict_partitions(max_size):
        if len(shape) > n:
            continue
        cases = [
            ("pt", models.model_pt(n), ptops.highest_pt(n, shape),
             ptops.lowest_pt(n, shape), set(tb.enumerate_pt(n, shape))),
            ("ssdt", models.model_ssdt(n), models.highest_ssdt(n, shape),
             models.lowest_ssdt(n, shape), set(tb.enumerate_ssdt(n, shape))),
        ]
        for family, model, hi, lo, everything in cases:
            checked += 1
            g = engine.component(model, hi)
            witness = {"check": "highlow", "family": family,
                       "n": n, "shape": shape}
            try:
                found_hi = engine.find_highest(g)
                found_lo = engine.find_lowest(g)
            except ValueError as exc:
                failures.append({**witness, "detail": str(exc)})
                continue
            if found_hi != hi:
                failures.append({**witness, "detail":
                                 f"highest is {model.fmt(found_hi)}"})
            if found_lo != lo:
                failures.append({**witness, "detail":
                                 f"lowest is {model.fmt(found_lo)}"})
            if set(g.vertices) != everything:
                failures.append({**witness, "detail":
                                 "family is not a single component"})
    return _report("highlow", checked, failures)


# ---------------------------------------------------------------------------

def verify_all(n: int = 3, max_size: int = 5, perm=None, m=None) -> dict:
    # equivalence first, so a --perm with nothing to check fails at once;
    # the reports still merge in the documented order
    equivalence = verify_equivalence(n, max_size, perm=perm, m=m)
    return _merge("all", [
        verify_axioms(n, max_size),
        verify_bijections(n, max_size),
        equivalence,
        verify_highlow(n, max_size),
    ])


SUITES = {
    "axioms": verify_axioms,
    "bijections": verify_bijections,
    "equivalence": verify_equivalence,
    "highlow": verify_highlow,
    "all": verify_all,
}
