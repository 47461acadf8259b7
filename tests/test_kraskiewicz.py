import collections
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_insertion as ref_kr
import reference_validators as ref
from qcrystal import kraskiewicz as kw
from qcrystal import tableaux as tb
from qcrystal import typeb
from qcrystal.tableaux import NotInImage
from qcrystal.typeb import parse_factorization as F
from qcrystal.typeb import parse_word as W


def reduced_words(n, max_len):
    out = []
    for m in range(max_len + 1):
        for w in itertools.product(range(n), repeat=m):
            if typeb.is_reduced(w, n):
                out.append(w)
    return out


def test_kr_golden():
    p, q = kw.kr(W("012013"))
    assert p == tb.parse_plain("2 0 1 3 / 0 1")
    assert q == tb.parse_plain("1 2 3 6 / 4 5")


def test_kr_small():
    assert kw.kr(W("0")) == (((0,),), ((1,),))
    assert kw.kr(W("")) == ((), ())
    assert kw.kr((2,)) == (((2,),), ((1,),))


def test_kr_rejects_non_reduced():
    with pytest.raises(ValueError, match="not reduced"):
        kw.kr(W("00"))
    with pytest.raises(ValueError, match="not reduced"):
        kw.kr(W("11"))


def test_rw_sdt():
    p = tb.parse_plain("2 0 1 3 / 0 1")
    assert kw.rw_sdt(p) == (0, 1, 2, 0, 1, 3)
    assert typeb.apply_word(kw.rw_sdt(p), 4) == (3, -2, 4, -1)


def test_validate_sdt():
    assert kw.validate_sdt(tb.parse_plain("2 0 1 3 / 0 1"), n=4) is None
    assert kw.validate_sdt(()) is None
    # non-unimodal row
    assert kw.validate_sdt(((1, 1),)) is not None
    # maximality: 0 then 1 2 hides a longer unimodal subword
    assert kw.validate_sdt(((1, 2), (0,))) is not None
    # letters out of range
    assert kw.validate_sdt(((3,),), n=2) is not None


def test_validate_sdt_matches_reference():
    # the insertion tableaux verify's kr round trip reaches, each also
    # with every one-cell change to a neighbouring letter in -1..3
    ps = sorted({kw.kr(w)[0] for w in reduced_words(3, 5)})
    for rows in ref.with_neighbours(ps, -1, 3):
        assert kw.validate_sdt(rows, n=3) == ref.validate_sdt(rows, n=3)


def test_kr_shapes_and_reading_words():
    for w in reduced_words(3, 5):
        p, q = kw.kr(w)
        assert tb.shape_of(p) == tb.shape_of(q)
        assert kw.validate_sdt(p, n=3) is None
        assert tb.validate_st(q) is None
        assert typeb.apply_word(kw.rw_sdt(p), 3) == typeb.apply_word(w, 3)


def test_kr_injective():
    words = reduced_words(3, 5)
    images = {kw.kr(w) for w in words}
    assert len(images) == len(words)


def test_kr_roundtrip():
    for w in reduced_words(3, 5):
        p, q = kw.kr(w)
        assert kw.kr_inverse(p, q) == w
    for w in reduced_words(4, 4):
        p, q = kw.kr(w)
        assert kw.kr_inverse(p, q) == w


def test_kr_inverse_golden():
    p = tb.parse_plain("2 0 1 3 / 0 1")
    q = tb.parse_plain("1 2 3 6 / 4 5")
    assert kw.kr_inverse(p, q) == (0, 1, 2, 0, 1, 3)


def test_kr_inverse_rejects_bad_input():
    with pytest.raises(kw.NotInImage):
        kw.kr_inverse(tb.parse_plain("0 1"), tb.parse_plain("1"))
    with pytest.raises(kw.NotInImage):
        kw.kr_inverse(tb.parse_plain("1 1"), tb.parse_plain("1 2"))
    with pytest.raises(kw.NotInImage):
        kw.kr_inverse(tb.parse_plain("0 1"), tb.parse_plain("2 1"))


BAD_KR_INVERSE_PAIRS = [
    ("0 1", "1"),      # shapes differ
    ("1 1", "1 2"),    # p not unimodal
    ("0 1", "2 1"),    # q not increasing
    ("0 1", "1 1"),    # q not standard, though 2q is a valid signed T
    ("0 1", "2 3"),    # q not standard: entries not 1..2
    ("1 1", "1 1"),    # p and q both bad
]


def test_kr_matches_reference():
    # kr is pkr on one-letter factors and validates only its final P; the
    # oracle has its own loop, which validates every intermediate P, and
    # its own reverse search
    for w in reduced_words(3, 5) + reduced_words(4, 4):
        p, q = kw.kr(w)
        assert (p, q) == ref_kr.kr(w), w
        assert kw.kr_inverse(p, q) == ref_kr.kr_inverse(p, q) == w


@pytest.mark.parametrize("p,q", BAD_KR_INVERSE_PAIRS)
def test_kr_inverse_rejects_like_reference(p, q):
    p, q = tb.parse_plain(p), tb.parse_plain(q)
    with pytest.raises(kw.NotInImage):
        kw.kr_inverse(p, q)
    with pytest.raises(kw.NotInImage):
        ref_kr.kr_inverse(p, q)


def test_kr_inverse_rejects_non_standard_q_first():
    with pytest.raises(kw.NotInImage, match="recording tableau invalid"):
        kw.kr_inverse(tb.parse_plain("0 1"), tb.parse_plain("1 1"))


# ---------------------------------------------------------------------------
# properties past the exhaustive bounds

PROPERTY_RANK = 5
PROPERTY_MAX_LEN = 12


@st.composite
def reduced_walk(draw):
    """A reduced word of rank 5 grown by length-increasing steps."""
    word: tuple[int, ...] = ()
    for _ in range(draw(st.integers(6, PROPERTY_MAX_LEN))):
        word += (draw(st.sampled_from([
            a for a in range(PROPERTY_RANK)
            if typeb.is_reduced(word + (a,), PROPERTY_RANK)])),)
    return word


@st.composite
def signed_cut(draw, m=4):
    """A prefix of a reduced walk cut into m signed unimodal factors."""
    rest = draw(reduced_walk())
    fact = []
    for _ in range(m):
        longest = max(k for k in range(len(rest) + 1)
                      if tb.is_unimodal(rest[:k]))
        # counted from the longest cut, which Hypothesis then favours
        k = longest - draw(st.integers(0, longest))
        sign = draw(st.sampled_from((1, -1))) if k else 0
        fact.append((sign, rest[:k]))
        rest = rest[k:]
    return tuple(fact)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(reduced_walk())
def test_kr_roundtrip_rank5_property(w):
    p, q = kw.kr(w)
    assert kw.validate_sdt(p, n=PROPERTY_RANK) is None
    assert (p, q) == ref_kr.kr(w)
    assert kw.kr_inverse(p, q) == w


@settings(derandomize=True, max_examples=200, deadline=None)
@given(signed_cut())
def test_pkr_roundtrip_rank5_property(fact):
    p, t = kw.pkr(fact)
    assert kw.pkr_inverse(p, t, m=4) == fact


# ---------------------------------------------------------------------------
# reverse-step and vee kernels against their plain forms


def _outcome(f, *args):
    """f's value, or the type and message of what it raised."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


def test_row_candidates_match_reference_exhaustively():
    for m in range(1, 6):
        for row in itertools.product(range(5), repeat=m):
            for out in range(6):
                assert (kw._row_candidates(row, out)
                        == ref_kr.row_candidates(row, out)), (row, out)


def test_vee_bottom_cells_match_reference_exhaustively():
    grid = [(r, c) for r in range(3) for c in range(3)]
    for m in range(5):
        for cells in itertools.product(grid, repeat=m):
            assert (_outcome(kw.vee_bottom_cells, cells)
                    == _outcome(ref_kr.vee_bottom_cells, cells)), cells


@st.composite
def unimodal_rows(draw):
    """A strictly decreasing then strictly increasing row of length <= 10."""
    dec = sorted(draw(st.sets(st.integers(0, 11), min_size=1, max_size=6)),
                 reverse=True)
    inc = sorted(draw(st.sets(st.integers(dec[-1] + 1, 12),
                              max_size=10 - len(dec))))
    return tuple(dec + inc)


def _undoings(row, out):
    """The local undoings of a row step that the reverse walk may take:
    unimodal, mapping forward to (row, out), and reduced."""
    found = []
    for cand, a in sorted(kw._row_candidates(row, out)):
        if not (tb.is_unimodal(cand) and typeb.is_reduced(cand + (a,))):
            continue
        try:
            if kw._row_step(cand, a) == ("cont", row, out):
                found.append((cand, a))
        except kw.InsertionError:
            pass
    return found


def _unbump_matches(row, out, found):
    """_unbump, removing a new row (out,) below row, takes the one undoing."""
    expect = ((found[0][0],), found[0][1]) if found else None
    return _outcome(kw._unbump, (row, (out,)), 1, 1) == expect


def _all_unimodal_rows(n):
    """Every nonempty unimodal row over 0..n-1: each letter above the
    valley is absent, in the decreasing part, in the increasing part or
    in both."""
    for low in range(n):
        above = range(low + 1, n)
        for parts in itertools.product(range(4), repeat=len(above)):
            dec = tuple(x for x, k in zip(above, parts) if k & 1)
            inc = tuple(x for x, k in zip(above, parts) if k & 2)
            yield dec[::-1] + (low,) + inc


def test_row_undoing_unique_exhaustively():
    # a row step keeps the product of the row and the entering letter, so
    # the true undoing is reduced; no other undoing is
    pairs = 0
    for row in _all_unimodal_rows(7):
        for out in range(7):
            pairs += 1
            found = _undoings(row, out)
            assert len(found) <= 1, (row, out, found)
            assert _unbump_matches(row, out, found), (row, out)
    assert pairs == 38227


@settings(derandomize=True, max_examples=200, deadline=None)
@given(unimodal_rows(), st.integers(0, 13))
def test_row_undoing_unique_property(row, out):
    found = _undoings(row, out)
    assert len(found) <= 1, found
    assert _unbump_matches(row, out, found)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.one_of(unimodal_rows(),
                 st.lists(st.integers(0, 12), min_size=1, max_size=10)
                 .map(tuple)),
       st.integers(0, 13))
def test_row_candidates_match_reference_property(row, out):
    assert kw._row_candidates(row, out) == ref_kr.row_candidates(row, out)


@st.composite
def vee_like_cells(draw):
    """Up to 10 cells: an arm going down and left, then one going up and
    right; a step that breaks this rule is drawn about a fifth of the time."""
    r, c = draw(st.integers(0, 4)), draw(st.integers(4, 8))
    cells = [(r, c)]
    down = st.tuples(st.sampled_from((1, 1, 2, 1, 0)),
                     st.sampled_from((0, -1, -2, 0, 1)))
    up = st.tuples(st.sampled_from((0, -1, -2, 0, 1)),
                   st.sampled_from((1, 1, 2, 1, 0)))
    for dr, dc in (draw(st.lists(down, max_size=4))
                   + draw(st.lists(up, max_size=5))):
        r, c = r + dr, c + dc
        cells.append((r, c))
    return cells


@settings(derandomize=True, max_examples=200, deadline=None)
@given(vee_like_cells())
def test_vee_bottom_cells_match_reference_property(cells):
    assert (_outcome(kw.vee_bottom_cells, cells)
            == _outcome(ref_kr.vee_bottom_cells, cells))


# ---------------------------------------------------------------------------
# vees


def test_vee_bottom_golden():
    q = tb.parse_plain("1 2 3 6 / 4 5")
    assert kw.vee_bottom(q, 3, 6) == 2
    assert kw.vee_bottom(q, 1, 6) is None
    assert kw.vee_bottom(q, 2, 2) == 1
    assert kw.vee_bottom(q, 1, 3) == 1
    assert kw.vee_bottom(q, 4, 5) == 1


def test_vee_lemma_small():
    # contiguous subword unimodal iff its recording cells form a vee
    for w in reduced_words(3, 5):
        if not w:
            continue
        _, q = kw.kr(w)
        for i in range(1, len(w) + 1):
            for j in range(i, len(w) + 1):
                sub = w[i - 1:j]
                bottom = kw.vee_bottom(q, i, j)
                assert (bottom is not None) == tb.is_unimodal(sub), (w, i, j)


# ---------------------------------------------------------------------------
# primed insertion


def test_pkr_golden():
    p, t = kw.pkr(F("(+01)(-2013)"))
    assert p == tb.parse_plain("2 0 1 3 / 0 1")
    assert t == tb.parse_primed("1 1 2' 2 / 2' 2")


def test_pkr_small():
    p, t = kw.pkr(F("(+0)"))
    assert p == ((0,),)
    assert t == tb.parse_primed("1")
    p, t = kw.pkr(F("()()"))
    assert (p, t) == ((), ())


def test_pkr_errors():
    with pytest.raises(ValueError):
        kw.pkr(((1, (0, 0)),))  # not unimodal
    with pytest.raises(ValueError):
        kw.pkr(F("(+0)(+0)"))  # concatenation not reduced


def test_pkr_inverse_golden():
    p = tb.parse_plain("2 0 1 3 / 0 1")
    t = tb.parse_primed("1 1 2' 2 / 2' 2")
    assert (kw.pkr_inverse(p, t, m=2)
            == typeb.parse_factorization("(+01)(-2013)"))


def test_pkr_inverse_trailing_empty_factors():
    p, t = kw.pkr(F("(+0)()"))
    assert kw.pkr_inverse(p, t, m=2) == typeb.parse_factorization("(+0)()")


def test_pkr_roundtrip_u3():
    for fact in typeb.enumerate_factorizations((3, 2, -1), 3):
        p, t = kw.pkr(fact)
        assert kw.validate_sdt(p, n=3) is None
        assert tb.validate_pt(t, diagonal_unprimed=False) is None
        assert kw.pkr_inverse(p, t, m=3) == fact


def test_pkr_inverse_bijective_rank3():
    # every signed tableau T of sh(P) with entries <= m is reached, and
    # the reverse walk finds the factorization that inserts to (P, T)
    pairs = 0
    for m in (1, 2, 3):
        table = {}
        for perm in typeb.enumerate_perms(3):
            if typeb.length(perm) <= 5:
                for fact in typeb.enumerate_factorizations(perm, m):
                    table[kw.pkr(fact)] = fact
        for p in {p for p, _ in table}:
            for t in tb.enumerate_pt(m, tb.shape_of(p),
                                     diagonal_unprimed=False):
                pairs += 1
                assert kw.pkr_inverse(p, t, m) == table[p, t], (p, t, m)
    assert pairs == 3203


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def _fibre_oracle_pairs():
    """Each (P, m, T) with P an insertion tableau of rank 3, length <= 5,
    m <= 3, and T of P's shape with entries <= m + 1, or of another
    strict shape of P's size with entries <= m."""
    ps = {kw.kr(w)[0] for perm in typeb.enumerate_perms(3)
          if typeb.length(perm) <= 5 for w in typeb.enumerate_reduced(perm)}
    for p in sorted(ps):
        shape = tb.shape_of(p)
        for m in (1, 2, 3):
            ts = list(tb.enumerate_pt(m + 1, shape, diagonal_unprimed=False))
            for other in tb.strict_partitions(sum(shape)):
                if sum(other) == sum(shape) and other != shape:
                    ts += tb.enumerate_pt(m, other, diagonal_unprimed=False)
            yield p, m, ts


def test_pkr_fibre_equals_per_pair_oracle():
    # one walk per removal order answers every T as the per-pair walk
    # does, bad T's (a wrong shape, a factor above m) with its message
    found = collections.Counter()
    for p, m, ts in _fibre_oracle_pairs():
        inverse = kw.pkr_fibre(p, m)
        for t in ts:
            got = _outcome(inverse, t)
            assert got == _outcome(ref_kr.pkr_inverse, p, t, m), (p, t, m)
            found[got[1].split(" ")[0] if got[0] is NotInImage else "ok"] += 1
    assert found == {"ok": 3203, "shapes": 3880, "factor": 9544}
    # a T that is no tableau is refused before its shape is read
    p = kw.pkr(F("(+01)"))[0]
    assert (_outcome(kw.pkr_fibre(p, 1), ((2, 2), (2,)))
            == _outcome(ref_kr.pkr_inverse, p, ((2, 2), (2,)), 1))
    assert _outcome(kw.pkr_fibre(p, 1), ((2, 2), (2,)))[1].startswith(
        "recording tableau invalid: ")


def test_pkr_fibre_rejects_as_the_oracle_does(monkeypatch):
    # a recording that forgets diagonal primes leaves every T with a
    # primed diagonal out of the image; both inverses say so alike
    real = kw._record
    monkeypatch.setattr(kw, "_record", lambda boxes, fact: tuple(
        (tb.code(tb.code_value(row[0]), False),) + row[1:]
        for row in real(boxes, fact)))
    missed = 0
    for p, m, ts in _fibre_oracle_pairs():
        inverse = kw.pkr_fibre(p, m)
        for t in tb.enumerate_pt(m, tb.shape_of(p), diagonal_unprimed=False):
            got = _outcome(inverse, t)
            assert got == _outcome(ref_kr.pkr_inverse, p, t, m), (p, t, m)
            if any(tb.code_primed(row[0]) for row in t):
                missed += 1
                assert got == (NotInImage,
                               "no factorization inserts to the pair")
    assert missed
    # and an invalid P is refused once, when its fibre is asked for
    bad = ((0, 0),)
    assert (_outcome(kw.pkr_fibre, bad, 1)
            == _outcome(ref_kr.pkr_inverse, bad, ((2, 2),), 1)
            == (NotInImage, "insertion tableau invalid: row 1 is not "
                            "unimodal"))


def test_pkr_inverse_injectivity_check_fires(monkeypatch):
    # without the reducedness test both (0, 1) 1 and (0, 2) 1 undo the
    # row (2, 1) passing 0 down
    monkeypatch.setattr(typeb, "is_reduced", lambda word, n=None: True)
    with pytest.raises(kw.InvariantError) as exc:
        kw.kr_inverse(((2, 1), (0,)), ((1, 2), (3,)))
    assert str(exc.value) == (
        "insertion not injective: [((0, 1), 1), ((0, 2), 1)]")


def test_pkr_roundtrip_short_perms():
    for perm in typeb.enumerate_perms(2):
        for m in (1, 2):
            for fact in typeb.enumerate_factorizations(perm, m):
                p, t = kw.pkr(fact)
                assert kw.pkr_inverse(p, t, m=m) == fact


def test_pkr_weight():
    # the recording tableau counts each factor's letters
    fact = typeb.parse_factorization("(+01)(-2013)")
    _, t = kw.pkr(fact)
    assert tb.pt_weight(t, 2) == typeb.fact_weight(fact)
