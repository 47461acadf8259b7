import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_ptops as ref_ptops
import reference_validators as ref
from qcrystal import kraskiewicz as kw
from qcrystal import mixed, models, ptops
from qcrystal import tableaux as tb
from qcrystal.typeb import parse_word


# ---------------------------------------------------------------------------
# hook / unimodal words


def test_hook_split():
    # the reference hook test splits the word; the library scans it once
    assert ref.hook_split((3, 2, 2)) == ((3, 2, 2), ())
    assert ref.hook_split((3, 2, 1, 2)) == ((3, 2, 1), (2,))
    assert ref.hook_split((1,)) == ((1,), ())
    with pytest.raises(ValueError):
        ref.hook_split(())
    with pytest.raises(ValueError):
        tb.is_hook(())


def test_is_hook():
    assert tb.is_hook((3, 2, 2))
    assert tb.is_hook((3, 2, 1, 2))
    assert not tb.is_hook((1, 2, 1, 2))
    assert tb.is_hook((1, 2, 3))
    assert not tb.is_hook((1, 2, 2))


def test_unimodal_split():
    assert tb.unimodal_split((2, 0, 1, 3)) == ((2, 0), (1, 3))
    assert tb.unimodal_split((0, 1)) == ((0,), (1,))
    assert tb.unimodal_split((3, 2, 1)) == ((3, 2, 1), ())


def test_is_unimodal():
    assert tb.is_unimodal((2, 0, 1, 3))
    assert not tb.is_unimodal((1, 1))
    assert tb.is_unimodal((0,))
    assert tb.is_unimodal(())
    assert not tb.is_unimodal((2, 0, 1, 1))


def _words(letters, max_len):
    for m in range(max_len + 1):
        yield from itertools.product(letters, repeat=m)


def test_is_unimodal_matches_reference_exhaustively():
    for w in _words(range(5), 7):
        assert tb.is_unimodal(w) == ref.is_unimodal(w), w


def test_vee_kernel_matches_reference_exhaustively():
    # both modes, with repeated letters so strict and weak runs differ
    for w in _words(range(4), 6):
        for strict_dec in (True, False):
            assert (tb._longest_vee_len(w, strict_dec)
                    == ref.longest_vee_len(w, strict_dec)), (w, strict_dec)


def test_longest_hook_subword_len_example():
    assert tb.longest_hook_subword_len((2, 3, 2, 2)) == 3


def _brute_longest(w, pred):
    best = 0
    for k in range(len(w) + 1):
        for sub in itertools.combinations(w, k):
            if sub and pred(sub):
                best = max(best, k)
    return best


@pytest.mark.parametrize("seed", range(8))
def test_subword_dp_against_brute_force(seed):
    rng = random.Random(seed)
    for _ in range(6):
        m = rng.randint(1, 9)
        w = tuple(rng.randint(0, 4) for _ in range(m))
        assert tb.longest_hook_subword_len(w) == _brute_longest(w, tb.is_hook)
        assert tb.longest_unimodal_subword_len(w) == _brute_longest(
            w, tb.is_unimodal
        )


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 7), max_size=14).map(tuple))
def test_subword_kernels_match_reference(w):
    hook = tb.longest_hook_subword_len(w)
    unimodal = tb.longest_unimodal_subword_len(w)
    assert hook == ref.longest_vee_len(w, strict_dec=False)
    assert unimodal == ref.longest_vee_len(w, strict_dec=True)
    assert tb.is_unimodal(w) == ref.is_unimodal(w)
    if w:
        assert tb.is_hook(w) == ref.is_hook(w)
    if len(w) <= 10:
        assert hook == _brute_longest(w, tb.is_hook)
        assert unimodal == _brute_longest(w, tb.is_unimodal)


# ---------------------------------------------------------------------------
# codes, text forms


def test_codes():
    assert tb.code(2, True) == 3
    assert tb.code(2, False) == 4
    assert tb.code_value(3) == 2 and tb.code_primed(3)
    assert tb.code_value(4) == 2 and not tb.code_primed(4)
    # the code order realizes 1' < 1 < 2' < 2 < ...
    assert tb.code(1, True) < tb.code(1, False) < tb.code(2, True)


def test_parse_format_roundtrip():
    text = "1 2' 2 3' 3 / 2 3' 3 / 3"
    rows = tb.parse_primed(text)
    assert tb.fmt_primed(rows) == text
    assert tb.shape_of(rows) == (5, 3, 1)
    # unicode primes are accepted on input, normalized on output
    assert tb.parse_primed("1 2′ 2 / 3") == tb.parse_primed("1 2' 2 / 3")
    assert tb.parse_primed("") == ()
    assert tb.fmt_primed(()) == ""


def test_parse_plain():
    assert tb.parse_plain("3 2 2 1 1 / 2 1 1 / 1") == (
        (3, 2, 2, 1, 1),
        (2, 1, 1),
        (1,),
    )
    assert tb.fmt_plain(((3, 2), (1,))) == "3 2 / 1"


@pytest.mark.parametrize("parse,text,message", [
    (tb.parse_primed, "1 x / 2", "not a letter 'x' in tableau '1 x / 2'"),
    (tb.parse_primed, " 1 2'' / 2", '''not a letter "2''" in tableau "1 2'' / 2"'''),
    (tb.parse_primed, "1 ′", "not a letter '′' in tableau '1 ′'"),
    (tb.parse_plain, "2 1 / 1 1.5", "not an integer '1.5' in tableau '2 1 / 1 1.5'"),
    (tb.parse_shape, "2,,1", "not an integer '' in shape '2,,1'"),
    (tb.parse_shape, "3,1,", "not an integer '' in shape '3,1,'"),
    (tb.parse_shape, "3;1", "not an integer '3;1' in shape '3;1'"),
    # int() would take these; the formatters never print them
    (tb.parse_shape, "1_1", "not an integer '1_1' in shape '1_1'"),
    (tb.parse_shape, "+3", "not an integer '+3' in shape '+3'"),
    (tb.parse_primed, "1 ٢", "not a letter '٢' in tableau '1 ٢'"),
    (tb.parse_primed, "1 +2", "not a letter '+2' in tableau '1 +2'"),
    (tb.parse_primed, "1 2_2'", "not a letter \"2_2'\" in tableau \"1 2_2'\""),
    (tb.parse_plain, "٣ 1", "not an integer '٣' in tableau '٣ 1'"),
], ids=["primed-letter", "primed-double-prime", "primed-bare-prime",
        "plain-entry", "shape-empty-part", "shape-trailing-comma",
        "shape-separator", "shape-underscore", "shape-plus",
        "primed-arabic-digit", "primed-plus", "primed-underscore",
        "plain-arabic-digit"])
def test_parsers_name_the_bad_token(parse, text, message):
    with pytest.raises(ValueError) as exc:
        parse(text)
    assert str(exc.value) == message


def test_shape_helpers():
    assert tb.parse_shape("5,3,1") == (5, 3, 1)
    assert tb.parse_shape("") == ()
    with pytest.raises(ValueError):
        tb.parse_shape("3,3")
    assert list(tb.shape_cells((2, 1))) == [(0, 0), (0, 1), (1, 1)]
    cells = tb.cell_map(((5, 6, 7), (8,)))
    assert cells == {(0, 0): 5, (0, 1): 6, (0, 2): 7, (1, 1): 8}
    assert list(cells) == list(tb.shape_cells((3, 1)))
    assert tb.from_cells((3, 1), cells) == ((5, 6, 7), (8,))
    assert tb.from_cells((), {}) == ()
    assert ref.get(((2, 3), (4,)), 1, 1) == 4
    assert ref.get(((2, 3), (4,)), 1, 0) is None
    strict = [p for k in range(1, 11) for p in sorted(
        p for size in range(1, k + 1)
        for p in itertools.combinations(range(k, 0, -1), size)
        if sum(p) == k)]
    assert tb.strict_partitions(10) == strict


# ---------------------------------------------------------------------------
# validators


def test_validate_pt_golden():
    rows = tb.parse_primed("1 2' 2 3' 3 / 2 3' 3 / 3")
    assert tb.validate_pt(rows, n=3) is None


def test_validate_pt_rejects_primed_diagonal():
    rows = tb.parse_primed("2' 2 / 3")
    assert tb.validate_pt(rows) is not None
    # ... but the signed family allows it
    assert tb.validate_pt(rows, diagonal_unprimed=False) is None


def test_validate_pt_primed_row_repeat():
    # two 2' in one row
    rows = ((2, 3, 3),)
    assert tb.validate_pt(rows) is not None


def test_validate_pt_unprimed_column_repeat():
    # column with 2 above 2
    rows = ((2, 4), (4,))
    assert tb.validate_pt(rows) is not None


def test_validate_pt_primed_column_repeat_ok():
    # primed repeats down a column are allowed: 3' above 3' off-diagonal
    rows = ((2, 3, 5), (4, 5))  # "1 2' 3' / 2 3'"
    assert tb.validate_pt(rows) is None


def test_validate_pt_empty():
    assert tb.validate_pt(()) is None


def test_validate_st():
    assert tb.validate_st(((1, 2, 3), (4,))) is None
    assert tb.validate_st(((1, 2, 4), (3,))) is None
    assert tb.validate_st(((1, 3, 4), (2,))) is not None  # column 2,3 decreasing? no: (0,1)=3,(1,1)=2
    assert tb.validate_st(((1, 2), (2,))) is not None
    assert tb.validate_st(()) is None


def test_validate_pt_matches_reference():
    # every PT with entries at most 4 and |shape| <= 7, every one-cell
    # change to a neighbouring code, including the out-of-range 0 and 4',
    # and every swap of two neighbouring cells.  Two failures in one row,
    # or in two row pairs, need two changes: a descent is reported before
    # a repeat, in a row or a column, and the lowest column first
    pts = [t for shape in tb.strict_partitions(7)
           for t in tb.enumerate_pt(4, shape)]
    crossed = [tb.parse_primed("1 2' 2' 3 2"),
               tb.parse_primed("1 1 1 3 / 2 2 2 / 2"),
               tb.parse_primed("1 1 2 / 2 2 / 1")]
    for rows in itertools.chain(ref.with_neighbours(pts, 0, 9),
                                ref.with_swaps(pts), crossed):
        assert tb.validate_pt(rows, n=4) == ref.validate_pt(rows, n=4)
    spts = [t for shape in tb.strict_partitions(6)
            for t in tb.enumerate_pt(3, shape, diagonal_unprimed=False)]
    for rows in itertools.chain(ref.with_neighbours(spts, 0, 7),
                                ref.with_swaps(spts)):
        assert tb.validate_pt(rows, diagonal_unprimed=False) \
            == ref.validate_pt(rows, diagonal_unprimed=False)


def test_validate_st_matches_reference():
    # one-cell changes break the entry set; permuted fillings reach the
    # row and column checks
    sts = [t for shape in tb.strict_partitions(7)
           for t in tb.enumerate_st(shape)]
    for rows in ref.with_neighbours(sts, 0, 8):
        assert tb.validate_st(rows) == ref.validate_st(rows)
    for shape in tb.strict_partitions(6):
        for perm in itertools.permutations(range(1, sum(shape) + 1)):
            it = iter(perm)
            rows = tuple(tuple(next(it) for _ in range(part))
                         for part in shape)
            assert tb.validate_st(rows) == ref.validate_st(rows)


def test_validate_ssdt_matches_reference():
    # the row and pair checks are memoised: a pass in reverse order from
    # cleared memos, and a pass with no alphabet, name the same first
    # fault, so a warm memo changes no verdict and no message
    ssdts = [t for shape in tb.strict_partitions(6)
             for t in tb.enumerate_ssdt(4, shape)]
    family = list(ref.with_neighbours(ssdts, 0, 5))
    for rows in family:
        assert tb.validate_ssdt(rows, n=4) == ref.validate_ssdt(rows, n=4)
    tb._dt_row_fault.cache_clear()
    tb._dt_pair_ok.cache_clear()
    for rows in reversed(family):
        assert tb.validate_ssdt(rows, n=4) == ref.validate_ssdt(rows, n=4)
    for rows in family:
        assert tb.validate_ssdt(rows) == ref.validate_ssdt(rows)
    # SDTs share the memos, keyed on the family: the same rows as SDTs,
    # then SSDTs, then SDTs again, with the same top letter 4 (and with
    # none), must each get their own family's verdicts
    for n_sdt, n_ssdt in ((5, 4), (None, None)):
        tb._dt_row_fault.cache_clear()
        tb._dt_pair_ok.cache_clear()
        for validate, oracle, n in ((kw.validate_sdt, ref.validate_sdt, n_sdt),
                                    (tb.validate_ssdt, ref.validate_ssdt,
                                     n_ssdt),
                                    (kw.validate_sdt, ref.validate_sdt, n_sdt)):
            for rows in family:
                assert validate(rows, n=n) == oracle(rows, n=n), (rows, n)


@pytest.mark.parametrize("shape,msg", [
    ((2, 2), "not a strict partition: (2, 2)"),
    ((1, 3), "not a strict partition: (1, 3)"),
    ((3, 0), "empty row in shape (3, 0)"),
])
def test_validators_reject_bad_shapes_like_reference(shape, msg):
    it = itertools.count(1)
    st_rows = tuple(tuple(next(it) for _ in range(part)) for part in shape)
    pt_rows = tuple(tuple(2 * v for v in row) for row in st_rows)
    ssdt_rows = tuple((1,) * part for part in shape)
    assert tb.validate_pt(pt_rows) == ref.validate_pt(pt_rows) == msg
    assert tb.validate_pt(pt_rows, diagonal_unprimed=False) \
        == ref.validate_pt(pt_rows, diagonal_unprimed=False) == msg
    assert tb.validate_st(st_rows) == ref.validate_st(st_rows) == msg
    assert tb.validate_ssdt(ssdt_rows) == ref.validate_ssdt(ssdt_rows) == msg


def test_validate_ssdt_golden():
    rows = tb.parse_plain("3 2 2 1 1 / 2 1 1 / 1")
    assert tb.validate_ssdt(rows, n=4) is None


def test_validate_ssdt_rejects_non_hook_row():
    rows = ((1, 2, 1),)
    assert tb.validate_ssdt(rows) is not None


def test_validate_ssdt_maximality():
    # rows individually hooks but lower row extends a longer hook through
    # the upper one
    good = tb.parse_plain("2 1 / 1")
    assert tb.validate_ssdt(good, n=2) is None
    bad = tb.parse_plain("1 2 / 1")
    # hook subword of 1,1,2 has length 3 > 2
    assert tb.validate_ssdt(bad, n=2) is not None


_HM = mixed.hm((1, 2, 2, 1))
_KR = kw.kr((0, 1, 0))
_PKR = kw.pkr(((1, (2, 0, 1)), (1, (3,))))


@pytest.mark.parametrize("func,args", [
    (tb.validate_pt, (_HM[0], 2)),
    (tb.validate_pt, (tb.parse_primed("1 2' 2' / 3"), 3)),
    (tb.validate_st, (_HM[1],)),
    (tb.validate_st, (((1, 3), (2,)),)),
    (tb.validate_ssdt, (((2, 1), (1,)), 2)),
    (tb.validate_ssdt, (((1, 2), (1,)), 2)),
    (kw.validate_sdt, (_KR[0], 3)),
    (kw.validate_sdt, (((0, 1), (0,)), 3)),
    (mixed.hm_inverse, _HM),
    (kw.kr_inverse, _KR),
    (kw.pkr_inverse, (*_PKR, 2)),
    (tb.fmt_plain, (((2, 1), (1,)),)),
    (ptops.arrows_pt, (tb.parse_primed("1 2' 2 / 3"), 3)),
    (ptops.arrows_signed, (tb.parse_primed("1 2' 2 / 3"), 3)),
    (ptops.arrows_signed, (tb.parse_primed("1' 2' 2 / 3'"), 3)),
    (ptops.e_bar1_pt, (tb.parse_primed("1 2' 2 / 3"),)),
    (ptops.f_bar1_pt, (tb.parse_primed("1 1 1 / 2"),)),
    (ptops.f_even_pt, (1, tb.parse_primed("1 1 1 3' / 2 3 3"))),
    (ptops.e_even_pt, (2, tb.parse_primed("1 1 1 3' / 2 3 3"))),
], ids=["pt", "pt-fault", "st", "st-fault", "ssdt", "ssdt-fault", "sdt",
        "sdt-fault", "hm_inverse", "kr_inverse", "pkr_inverse", "fmt_plain",
        "arrows_pt", "arrows_signed", "arrows_signed-primed", "e_bar1_pt",
        "f_bar1_pt", "f_even_pt", "e_even_pt"])
def test_list_rows_give_the_tuple_answer(func, args):
    # every tuple argument is a tableau; its list form answers the same
    listed = [[list(row) for row in a] if isinstance(a, tuple) else a
              for a in args]
    assert func(*listed) == func(*args)


# ---------------------------------------------------------------------------
# reading words


def test_rw_ssdt():
    assert tb.rw_ssdt(((3, 2, 2), (2,))) == (2, 2, 3, 2)
    rows = tb.parse_plain("3 2 2 1 1 / 2 1 1 / 1")
    assert tb.rw_ssdt(rows) == parse_word("112231121")


def test_rw_pt():
    # the PT reading word lives only in the reference validators and in
    # the strip order of ptops._rw_key
    def rw_pt(rows):
        return tuple(v for v, _, _ in ref.rw_pt_cells(rows))
    rows = tb.parse_primed("1 2' 2 / 3")
    assert rw_pt(rows) == (2, 3, 1, 2)
    golden = tb.parse_primed("1 2' 2 3' 3 / 2 3' 3 / 3")
    assert rw_pt(golden) == parse_word("332323123")


def test_rw_pt_cells_provenance():
    rows = tb.parse_primed("1 2' 2 / 3")
    cells = ref.rw_pt_cells(rows)
    assert cells == [
        (2, True, (0, 1)),
        (3, False, (1, 1)),
        (1, False, (0, 0)),
        (2, False, (0, 2)),
    ]


def test_weights():
    rows = tb.parse_primed("1 2' 2 / 3")
    assert tb.pt_weight(rows, 3) == (1, 2, 1)
    srows = tb.parse_plain("3 2 2 1 1 / 2 1 1 / 1")
    assert tb.ssdt_weight(srows, 4) == (5, 3, 1, 0)


# ---------------------------------------------------------------------------
# conjugation, prime type


def test_conjugate():
    # the full conjugate is kept only by the reference even operators
    assert ref_ptops.conjugate(tb.parse_primed("1")) == {(0, 0): 3}
    assert ref_ptops.conjugate(tb.parse_primed("1 2'")) == {
        (0, 0): 3, (1, 0): 4}
    rows = tb.parse_primed("1 2' 2 / 3")
    cells = ref_ptops.conjugate(rows)
    assert ref_ptops.conjugate_inverse(cells) == rows


def test_prime_type_and_dpr_pr():
    assert tb.prime_type(tb.parse_primed("2'")) == frozenset({1})
    spt = tb.parse_primed("1' 1 / 2'")
    assert tb.prime_type(spt) == frozenset({1, 2})
    stripped, ptype = tb.dpr(spt)
    assert stripped == tb.parse_primed("1 1 / 2")
    assert ptype == frozenset({1, 2})
    assert tb.pr(stripped, ptype) == spt
    assert tb.dpr(tb.parse_primed("1 2' / 2"))[1] == frozenset()
    with pytest.raises(ValueError):
        tb.pr(tb.parse_primed("1 1 / 2"), {3})


def test_dpr_pr_roundtrip_shape_21():
    for rows in tb.enumerate_pt(2, (2, 1), diagonal_unprimed=False):
        stripped, ptype = tb.dpr(rows)
        assert tb.validate_pt(stripped) is None
        assert tb.pr(stripped, ptype) == rows


# ---------------------------------------------------------------------------
# rim strips: the count d(r, j) behind the extreme tableaux


def test_rim_depths_531():
    assert tb.rim_depths((5, 3, 1)) == ((3, 2, 2, 1, 1), (2, 1, 1), (1,))
    # a cell is primed in lowest_pt where its strip climbs: the cell
    # below it lies in the same strip
    primes = [[tb.code_primed(c) for c in row]
              for row in ptops.lowest_pt(5, (5, 3, 1))]
    assert primes == [[False, True, False, True, False],
                      [False, True, False], [False]]


def test_highest_ssdt_strip_sizes():
    for shape in [(1,), (2,), (2, 1), (3, 1), (3, 2), (4, 2, 1), (5, 3, 1)]:
        entries = [v for row in models.highest_ssdt(len(shape), shape)
                   for v in row]
        assert [entries.count(k) for k in range(1, len(shape) + 2)] == \
            list(shape) + [0]


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_st_31():
    st = tb.enumerate_st((3, 1))
    assert st == [((1, 2, 3), (4,)), ((1, 2, 4), (3,))]


def test_enumerate_st_against_validator():
    for shape in [(1,), (2, 1), (3, 1), (3, 2)]:
        st = tb.enumerate_st(shape)
        assert all(tb.validate_st(t) is None for t in st)
        n = sum(shape)
        brute = []
        for perm in itertools.permutations(range(1, n + 1)):
            rows = []
            it = iter(perm)
            for part in shape:
                rows.append(tuple(next(it) for _ in range(part)))
            rows = tuple(rows)
            if tb.validate_st(rows) is None:
                brute.append(rows)
        assert sorted(st) == sorted(brute)


def test_enumerate_pt_against_validator():
    # the brute-force row-major fill, in itertools.product order, pins
    # the order of the list as well as its contents
    for n, shape, diagonal_unprimed in [
            (2, (2,), True), (2, (2, 1), True), (3, (2,), True),
            (3, (3, 2, 1), True), (2, (2, 1), False), (3, (2, 1), False),
            (3, (3, 1), False)]:
        got = tb.enumerate_pt(n, shape, diagonal_unprimed=diagonal_unprimed)
        cells = list(tb.shape_cells(shape))
        brute = []
        for fill in itertools.product(range(1, 2 * n + 1),
                                      repeat=len(cells)):
            rows = []
            it = iter(fill)
            for part in shape:
                rows.append(tuple(next(it) for _ in range(part)))
            rows = tuple(rows)
            if tb.validate_pt(rows, n=n,
                              diagonal_unprimed=diagonal_unprimed) is None:
                brute.append(rows)
        assert got == brute, (n, shape, diagonal_unprimed)


def test_enumerate_pt_counts():
    assert len(tb.enumerate_pt(3, (3, 1))) == 24
    assert len(tb.enumerate_pt(3, (4,))) == 33


def test_enumerate_spt_counts():
    # each signed tableau = plain tableau + free sign per diagonal
    for n, shape in [(2, (2, 1)), (3, (2,))]:
        plain = len(tb.enumerate_pt(n, shape))
        signed = len(tb.enumerate_pt(n, shape, diagonal_unprimed=False))
        assert signed == plain * 2 ** len(shape)


def test_enumerate_ssdt_against_validator():
    # the brute-force row-major fill, in itertools.product order, pins
    # the order of the list as well as its contents
    for n, shape in [(2, (2, 1)), (3, (2, 1)), (2, (3,)), (3, (3, 1)),
                     (4, (2, 1))]:
        got = tb.enumerate_ssdt(n, shape)
        cells = list(tb.shape_cells(shape))
        brute = []
        for fill in itertools.product(range(1, n + 1), repeat=len(cells)):
            rows = []
            it = iter(fill)
            for part in shape:
                rows.append(tuple(next(it) for _ in range(part)))
            rows = tuple(rows)
            if tb.validate_ssdt(rows, n=n) is None:
                brute.append(rows)
        assert got == brute, (n, shape)


def test_enumerate_st_long_row():
    # the fill keeps its own stack, so a long row needs no stack frame
    # per value
    assert tb.enumerate_st((1000,)) == [(tuple(range(1, 1001)),)]


def test_enumerate_empty_shape():
    assert tb.enumerate_st(()) == [()]
    assert tb.enumerate_pt(3, ()) == [()]
    assert tb.enumerate_ssdt(3, ()) == [()]
