"""Exhaustive small-scale checks of the structural theorems.

Each check walks a finite family (words, tableaux, reduced words,
factorizations) and records every violation as a witness dict, so a
report is useful even when something breaks.  Reports have the shape
``{"suite": str, "checked": int, "failures": [ ... ]}``; a run passes
iff ``failures`` is empty.  The fine-grained ``check_*`` functions take
explicit bounds; the ``verify_*`` wrappers bundle them for the CLI.

The insertion sweeps insert each element once.  The kr round trip
checks the vee lemma on the Q of each reduced word it inserts.  The
primed-insertion round trip and the odd factorization transport read
one P-fibre table per (perm, m) (``_pkr_fibres``): one pkr and one
pkr_fibre per fibre, whose inverse runs once per pair and undoes each
removal order once.  The tableau transport, hm(op(w)) = (op(t), q) for
each word w with hm(w) = (t, q), reads one forward hm table per word
length (``_hm_table``).  Nothing a table lacks falls back to an
insertion: it is the witness.  verify_all builds each P-fibre table in
the transport sweep and keeps only its round-trip result, which the pkr
round trip then reports.

verify_all runs in two processes, so it needs ``os.fork`` (POSIX), and
its caller should run no other thread while it forks.  A forked child
runs every suite that reads no P-fibre table: the axioms, the hm and kr
round trips, the tableau transport and highlow.  At the same time the
parent runs the factorization transport and then the pkr round trip off
its tables, and merges the reports in the documented order.  The other
suites run in-process.
"""

import dataclasses
import functools
import itertools
import os

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


def _all_words(n: int, length: int):
    return itertools.product(range(1, n + 1), repeat=length)


def _check_axioms(model, vertices, failures):
    """The axioms on each component of model that vertices meet."""
    checked = 0
    check = (engine.check_q_axioms if "b1" in model.colors
             else engine.check_gl_axioms)
    seen = set()
    for v in vertices:
        if v in seen:
            continue
        g = engine.component(model, v)
        seen.update(g.vertices)
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
                if (sorted(tb.code_value(c) for row in p for c in row)
                        != sorted(w)):
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
    carry every standard recording tableau exactly once; and the vee
    lemma: a contiguous subword is unimodal iff its recording cells form
    a vee.  One kr per reduced word serves all of these.  The vee
    witnesses follow the kr-fiber ones; a nonempty word that kr rejects
    is a witness of both kr and vee.
    """
    failures = []
    vees = []
    checked = 0
    fibers: dict = {}
    for w in _reduced_words(n, max_len):
        checked += 1
        try:
            p, q = kw.kr(w)  # checks P and Q itself
        except ValueError as exc:
            failures.append({"check": "kr", "word": typeb.fmt_word(w),
                             "detail": str(exc)})
            if w:
                vees.append({"check": "vee", "word": typeb.fmt_word(w),
                             "detail": str(exc)})
            continue
        try:
            # a letter of P outside 0..n-1 makes apply_word raise
            if typeb.apply_word(kw.rw_sdt(p), n) != typeb.apply_word(w, n):
                raise ValueError("reading word changes the permutation")
            if kw.kr_inverse(p, q) != w:
                raise ValueError("round trip failed")
            fibers.setdefault((typeb.apply_word(w, n), p), set()).add(q)
        except ValueError as exc:
            failures.append({"check": "kr", "word": typeb.fmt_word(w),
                             "detail": str(exc)})
        for i in range(1, len(w) + 1):
            for j in range(i, len(w) + 1):
                checked += 1
                uni = tb.is_unimodal(w[i - 1:j])
                bottom = kw.vee_bottom(q, i, j)
                if uni != (bottom is not None):
                    vees.append({
                        "check": "vee", "word": typeb.fmt_word(w),
                        "i": i, "j": j,
                        "detail": f"unimodal={uni} bottom={bottom}",
                    })
    # a reduced word of length <= max_len has a perm of just that length,
    # so each fiber's perm has all of its reduced words enumerated
    for (perm, p), qs in fibers.items():
        expect = set(tb.enumerate_st(tb.shape_of(p)))
        if qs != expect:
            failures.append({
                "check": "kr-fiber", "perm": typeb.fmt_perm(perm),
                "p": tb.fmt_plain(p),
                "detail": f"fiber has {len(qs)} of {len(expect)} tableaux",
            })
    return _report("kr-roundtrip", checked, failures + vees)


def _pkr_fibres(perm, m: int):
    """The P-fibre table of perm's m-factor signed factorizations, and
    the primed-insertion round trip read off it.

    pkr runs on a factorization only when no fibre opened so far holds
    it.  Its P opens a fibre (its reading word must give perm):
    pkr_fibre(P, m) checks P once, and its inverse runs once on every
    signed primed tableau T of P's shape with entries <= m; each result
    must have T's weight.
    table maps each pair (P, T) to its factorization, pairs maps back.
    A factorization must be the image of the pair pkr gave it, and the
    images must be exactly the factorizations of perm (the union check):
    one missed is a factorization pkr ran on, so it is already a witness.
    Returns (facts, table, pairs, (checked, witnesses)).
    """
    facts = list(typeb.enumerate_factorizations(perm, m))
    table: dict = {}
    pairs: dict = {}
    witnesses: list = []
    fibres = set()
    for fact in facts:
        if fact in pairs:
            continue
        try:
            p, t = kw.pkr(fact)  # checks P and T itself
            if p not in fibres:
                fibres.add(p)
                _open_fibre(p, m, table, pairs, witnesses)
                # a letter of P outside 0..rank-1 makes apply_word raise
                if typeb.apply_word(kw.rw_sdt(p), len(perm)) != perm:
                    raise ValueError("reading word changes the permutation")
            if pairs.get(fact) != (p, t):
                raise ValueError("round trip failed")
        except ValueError as exc:
            witnesses.append({"check": "pkr",
                              "fact": typeb.fmt_factorization(fact),
                              "detail": str(exc)})
    for other in sorted(pairs.keys() - set(facts)):
        witnesses.append({"check": "pkr",
                          "fact": typeb.fmt_factorization(other),
                          "detail": "pkr_inverse left the factorizations "
                                    f"of {typeb.fmt_perm(perm)}"})
    return facts, table, pairs, (len(facts), witnesses)


def _open_fibre(p, m: int, table: dict, pairs: dict, witnesses: list):
    inverse = kw.pkr_fibre(p, m)  # checks P itself
    for t in tb.enumerate_pt(m, tb.shape_of(p), diagonal_unprimed=False):
        try:
            fact = inverse(t)
            if typeb.fact_weight(fact) != tb.pt_weight(t, m):
                raise ValueError("recording weight mismatch")
            first = pairs.setdefault(fact, (p, t))
            if first != (p, t):
                raise ValueError("pkr_inverse is not injective: same "
                                 "factorization as " + tb.fmt_primed(first[1]))
        except ValueError as exc:
            witnesses.append({"check": "pkr", "p": tb.fmt_plain(p),
                              "t": tb.fmt_primed(t), "detail": str(exc)})
            continue
        table[(p, t)] = fact


def check_pkr_roundtrip(rank: int, max_len: int, max_m: int,
                        _roundtrips=None) -> dict:
    """Primed insertion is a bijection from the signed factorizations of
    each perm onto its P-fibre pairs (``_pkr_fibres``).

    ``_roundtrips`` maps (perm, m) to the (checked, witnesses) that
    check_fact_transport found building that table, so that verify_all
    builds each table once; only the missing ones are built here.
    """
    failures = []
    checked = 0
    for perm in typeb.enumerate_perms(rank):
        if typeb.length(perm) > max_len:
            continue
        for m in range(1, max_m + 1):
            done = (_roundtrips or {}).get((perm, m))
            count, witnesses = done or _pkr_fibres(perm, m)[3]
            checked += count
            failures.extend(witnesses)
    return _report("pkr-roundtrip", checked, failures)


def verify_bijections(n: int = 3, max_size: int = 5) -> dict:
    """Round-trips for all three insertions plus the vee lemma.

    The primed insertion sweep is pinned to rank 3, length 5, m 3 (the
    scale the factor theorems are verified at); the others follow the
    given bounds.  The vee lemma is checked inside the kr round trip, on
    the Q of each reduced word it inserts.
    """
    return _merge("bijections", [
        check_hm_roundtrip(n, max_size),
        check_kr_roundtrip(n, max_size),
        check_pkr_roundtrip(min(n, 3), min(max_size, 5), 3),
    ])


# ---------------------------------------------------------------------------
# suite: equivalence

def _hm_table(n: int, size: int, failures: list) -> dict:
    """The forward table {w: hm(w)} over the words of one length.  Two
    words with one image are a witness that hm is not injective, and so
    are fewer images than pairs (t, q) of that size: the words then miss
    a pair.  A word hm rejects is left out, so it falls short too."""
    table: dict = {}
    first: dict = {}
    for w in _all_words(n, size):
        try:
            table[w] = pair = mixed.hm(w)  # checks P and Q itself
        except ValueError:
            continue
        if first.setdefault(pair, w) != w:
            failures.append({"check": "pt-transport", "op": "hm",
                             "word": typeb.fmt_word(w),
                             "detail": "hm is not injective: same pair as "
                                       + typeb.fmt_word(first[pair])})
    total = sum(len(tb.enumerate_pt(n, shape)) * len(tb.enumerate_st(shape))
                for shape in tb.strict_partitions(size)
                if sum(shape) == size and len(shape) <= n)
    if len(first) < total:
        failures.append({"check": "pt-transport", "op": "hm", "size": size,
                         "detail": f"hm reaches {len(first)} of {total} "
                                   "pairs (t, q)"})
    return table


def _hm_image(w, word_op, table: dict):
    """P of hm(word_op(w)) off _hm_table; None where word_op is undefined."""
    w2 = word_op(w)
    if w2 is None:
        return None
    if w2 not in table:
        raise ValueError(f"{typeb.fmt_word(w2)} is not in the hm table")
    if table[w2][1] != table[w][1]:
        raise ValueError("operator moved the recording tableau")
    return table[w2][0]


def check_pt_transport(n: int, max_size: int) -> dict:
    """hm(op(w)) = (op(t), q) for every word w over 1..n with hm(w) = (t, q):
    explicit tableau operators match insertion transport, whatever Q is.
    Each length is read off one forward table (``_hm_table``), no fallback."""
    failures = []
    checked = 0
    # model_pt(1) has no odd pair: f_bar1 leaves the alphabet 1..1
    ops = [("e_bar1", ptops.e_bar1_pt, words.e_bar1),
           ("f_bar1", ptops.f_bar1_pt, words.f_bar1)] if n >= 2 else []
    ops += [(f"f_{i}", functools.partial(ptops.f_even_pt, i),
             functools.partial(words.f_even, i)) for i in range(1, n)]
    # each rule runs once per t, not once per word
    ops = [(name, functools.cache(rule), op) for name, rule, op in ops]
    for size in range(1, max_size + 1):
        table = _hm_table(n, size, failures)
        for w, (t, q) in table.items():
            for name, rule, word_op in ops:
                checked += 1
                try:
                    if rule(t) == _hm_image(w, word_op, table):
                        continue
                    detail = "transport disagrees with the rule"
                except ValueError as exc:
                    detail = str(exc)
                failures.append({
                    "check": "pt-transport", "op": name,
                    "t": tb.fmt_primed(t), "q": tb.fmt_plain(q),
                    "detail": detail,
                })
    return _report("pt-transport", checked, failures)


def _odd_transport(fact, op, m: int, table: dict, pairs: dict):
    """The transport of fact under the signed operator op("b1", -), read
    off its fibre table (``_pkr_fibres``): table[(P, op("b1", T))], or
    None when op is undefined or leaves the entries <= m.  A
    factorization or a pair the table lacks is a ValueError naming it."""
    if fact not in pairs:
        raise ValueError("factorization is not in the P-fibre table")
    p, t = pairs[fact]
    t2 = fc.within(op("b1", t), m)
    if t2 is None:
        return None
    if (p, t2) not in table:
        raise ValueError(f"the P-fibre table has no pair P = "
                         f"{tb.fmt_plain(p)}, T = {tb.fmt_primed(t2)}")
    return table[(p, t2)]


def check_fact_transport(rank: int = 3, max_len: int = 5,
                         max_m: int = 3, perm=None, m=None,
                         _roundtrips=None) -> dict:
    """Explicit odd factor surgery matches insertion transport, read off
    one P-fibre table per (perm, m) (``_pkr_fibres``).

    Each table is dropped after its sweep; with ``_roundtrips`` given,
    its round trip's (checked, witnesses) is kept there, keyed by
    (perm, m), for check_pkr_roundtrip.
    """
    failures = []
    checked = 0
    perms = [tuple(perm)] if perm else [
        p for p in typeb.enumerate_perms(rank) if typeb.length(p) <= max_len
    ]
    for perm_ in perms:
        for mm in [m] if m is not None else range(1, max_m + 1):
            facts, table, pairs, roundtrip = _pkr_fibres(perm_, mm)
            if _roundtrips is not None:
                _roundtrips[(perm_, mm)] = roundtrip
            for fact in facts:
                checked += 2
                for name, explicit, op in (
                    ("e_bar1", fc.e_bar1_fact, ptops.e_signed),
                    ("f_bar1", fc.f_bar1_fact, ptops.f_signed),
                ):
                    try:
                        if explicit(fact) == _odd_transport(
                                fact, op, mm, table, pairs):
                            continue
                        detail = "transport disagrees with the rule"
                    except ValueError as exc:
                        detail = str(exc)
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

def _forked(work):
    """Start work() in a forked child; return wait(cancel=False).

    wait() reads the child's result to EOF, reaps the child and returns
    the result, or raises the exception work raised; a child that died
    or could not send its result is an InvariantError.  wait(cancel=True)
    kills and reaps the child and reads nothing.
    """
    import pickle  # only verify_all forks: keep both off the CLI import
    import signal
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        # the child never returns into the caller's stack, and leaves by
        # os._exit, so it flushes nothing it inherited
        status = 1
        try:
            os.close(read_end)
            try:
                result = (True, work())
            except BaseException as exc:
                result = (False, exc)
            with open(write_end, "wb") as pipe:
                pickle.dump(result, pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)

    def wait(cancel=False):
        try:
            if cancel:
                os.close(read_end)
                os.kill(pid, signal.SIGKILL)
                return None
            # to EOF before waitpid: a large result fills the pipe
            with open(read_end, "rb") as pipe:
                data = pipe.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            status = os.waitpid(pid, 0)[1]
        if status != 0:
            code = os.waitstatus_to_exitcode(status)
            raise tb.InvariantError(
                f"the verify_all child sent no result (exit {code})")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        return value
    return wait


def _child_suites(n: int, max_size: int, perm=None):
    """The suites of verify_all that read no P-fibre table: the axioms,
    the hm and kr round trips, the tableau transport (only without a
    perm, as in verify_equivalence) and highlow."""
    return (verify_axioms(n, max_size),
            check_hm_roundtrip(n, max_size),
            check_kr_roundtrip(n, max_size),
            [check_pt_transport(min(n, 3), max_size)] if perm is None else [],
            verify_highlow(n, max_size))


def verify_all(n: int = 3, max_size: int = 5, perm=None, m=None) -> dict:
    """Every suite, in two processes: a forked child runs _child_suites
    while the parent runs the factorization transport, so a --perm with
    nothing to check fails at once, and then the pkr round trip off its
    P-fibre tables.  The reports merge in the documented order."""
    wait = _forked(lambda: _child_suites(n, max_size, perm))
    try:
        roundtrips: dict = {}
        fact = check_fact_transport(3, min(max_size, 5), 3, perm=perm, m=m,
                                    _roundtrips=roundtrips)
        pkr = check_pkr_roundtrip(min(n, 3), min(max_size, 5), 3, roundtrips)
    except BaseException:
        wait(cancel=True)
        raise
    axioms, hm, kr, pt, highlow = wait()
    return _merge("all", [
        axioms,
        _merge("bijections", [hm, kr, pkr]),
        _merge("equivalence", [*pt, fact]),
        highlow,
    ])


SUITES = {
    "axioms": verify_axioms,
    "bijections": verify_bijections,
    "equivalence": verify_equivalence,
    "highlow": verify_highlow,
    "all": verify_all,
}
