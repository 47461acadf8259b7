import collections
import dataclasses
import json
import time

import pytest

from qcrystal import cli, models, ptops, verify, words
from qcrystal import kraskiewicz as kw
from qcrystal import tableaux as tb


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def dot_vertices(out):
    return [line for line in out.splitlines()
            if line.startswith('  "') and line.endswith('";')]


def test_insert_hm_golden(capsys):
    code, out, _ = run(capsys, "insert", "--algo", "hm", "333323212")
    assert code == 0
    assert out == "P: 1 2' 2 3' 3 / 2 3' 3 / 3\nQ: 1 2 3 4 6 / 5 7 9 / 8\n"


def test_insert_kr_golden(capsys):
    code, out, _ = run(capsys, "insert", "--algo", "kr", "012013")
    assert code == 0
    assert out == "P: 2 0 1 3 / 0 1\nQ: 1 2 3 6 / 4 5\n"


def test_insert_pkr_golden(capsys):
    code, out, _ = run(capsys, "insert", "--algo", "pkr", "(+01)(-2013)")
    assert code == 0
    assert out == "P: 2 0 1 3 / 0 1\nT: 1 1 2' 2 / 2' 2\n"


def test_insert_not_reduced(capsys):
    code, out, err = run(capsys, "insert", "--algo", "kr", "00")
    assert code == 2
    assert out == ""
    assert "not reduced" in err


def test_graph_pt_24_vertices(capsys):
    code, out, _ = run(capsys, "graph", "--model", "pt",
                       "--n", "3", "--shape", "3,1")
    assert code == 0
    assert out.startswith("digraph pt3 {\n")
    assert out.endswith("}\n")
    assert len(dot_vertices(out)) == 24


def test_graph_fact_33_vertices(capsys):
    code, out, _ = run(capsys, "graph", "--model", "fact", "--perm", "3,2,-1",
                       "--m", "3", "--seed", "(+2012)()()")
    assert code == 0
    assert len(dot_vertices(out)) == 33


def test_graph_words_two_vertices(capsys):
    code, out, _ = run(capsys, "graph", "--model", "words",
                       "--n", "2", "--seed", "1")
    assert code == 0
    assert dot_vertices(out) == ['  "1";', '  "2";']


def test_graph_is_deterministic(capsys):
    _, first, _ = run(capsys, "graph", "--model", "ssdt",
                      "--n", "3", "--shape", "3,1")
    _, second, _ = run(capsys, "graph", "--model", "ssdt",
                       "--n", "3", "--shape", "3,1")
    assert first == second


def test_graph_json(capsys):
    code, out, _ = run(capsys, "graph", "--model", "spt", "--m", "2",
                       "--shape", "2,1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["vertices"]) == 2


def test_graph_cap_exceeded(capsys, monkeypatch):
    monkeypatch.setenv("QCRYSTAL_MAX_VERTICES", "5")
    code, out, err = run(capsys, "graph", "--model", "pt",
                         "--n", "3", "--shape", "3,1")
    assert code == 3
    assert "cap" in err


@pytest.mark.parametrize("cap", ["abc", "2.5", "0", "-3", "", "1_0", "+5",
                                 "٥"])
def test_bad_vertex_cap_exits_2(capsys, monkeypatch, cap):
    # the one-vertex component of the empty word fits any cap >= 1, so
    # only the cap itself can be at fault
    monkeypatch.setenv("QCRYSTAL_MAX_VERTICES", cap)
    code, out, err = run(capsys, "graph", "--model", "words",
                         "--n", "3", "--seed", "")
    assert code == 2
    assert out == ""
    assert err == ("error: QCRYSTAL_MAX_VERTICES must be an integer >= 1, "
                   f"not {cap!r}\n")


def test_vertex_cap_of_one_holds_the_seed(capsys, monkeypatch):
    monkeypatch.setenv("QCRYSTAL_MAX_VERTICES", "1")
    code, out, _ = run(capsys, "graph", "--model", "words",
                       "--n", "3", "--seed", "")
    assert code == 0
    assert dot_vertices(out) == ['  "";']
    code, out, err = run(capsys, "graph", "--model", "words",
                         "--n", "3", "--seed", "1")
    assert code == 3
    assert err == "error: component exceeded the vertex cap 1\n"


def test_internal_error_exits_4(capsys, monkeypatch):
    real = tb.validate_ssdt
    seed = models.highest_ssdt(3, (2, 1))

    def planted(rows, n=None):
        # the seed passes every check; the first operator output fails
        return real(rows, n) if rows == seed else "planted fault"

    monkeypatch.setattr(tb, "validate_ssdt", planted)
    code, out, err = run(capsys, "graph", "--model", "ssdt",
                         "--n", "3", "--shape", "2,1")
    assert code == 4
    assert out == ""
    assert err == "internal error: operator left the family: planted fault\n"


def _plant_f_bar1_pt(monkeypatch, planted):
    real = ptops.f_bar1_pt
    monkeypatch.setattr(ptops, "f_bar1_pt", lambda t: planted(real(t)))


def _grow_row_1(out):
    return None if out is None else (out[0] + out[0][-1:],) + out[1:]


def test_transport_fault_is_a_witness_not_bad_input(capsys, monkeypatch):
    # an f_bar1_pt that grows row 1 gives a T of the wrong shape, which
    # no pair of the P-fibre table holds: a failed check (exit 1), not 2
    _plant_f_bar1_pt(monkeypatch, _grow_row_1)
    code, out, err = run(capsys, "verify", "--suite", "equivalence",
                         "--perm", "2,-3,1", "--m", "3")
    assert code == 1
    assert err == ""
    failures = json.loads(out)["failures"]
    assert failures and all(f["check"] == "fact-transport" for f in failures)
    assert {"check": "fact-transport", "fact": "(-1)()(-2101)",
            "op": "f_bar1", "detail": "the P-fibre table has no pair "
            "P = 2 1 0 1 / 1, T = 2' 3' 3 3 3 / 3'"} in failures


def test_odd_transport_reads_only_its_table(capsys, monkeypatch):
    # a transported pair the table lacks is a witness of its own: no
    # insertion runs beyond one pkr and one pkr_fibre per fibre, and one
    # inverse per pair
    _plant_f_bar1_pt(monkeypatch, _grow_row_1)
    calls = collections.Counter()

    def count(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module, name in ((kw, "pkr"), (ptops, "transport_op")):
        count(module, name)
    real_fibre = kw.pkr_fibre

    def fibre(p, m):
        calls["pkr_fibre"] += 1
        inverse = real_fibre(p, m)

        def counted(t):
            calls["inverse"] += 1
            return inverse(t)

        return counted

    monkeypatch.setattr(kw, "pkr_fibre", fibre)
    code, out, err = run(capsys, "verify", "--suite", "equivalence",
                         "--perm", "2,-3,1", "--m", "3")
    assert (code, err, len(json.loads(out)["failures"])) == (1, "", 96)
    assert (calls["pkr_fibre"], calls["inverse"], calls["pkr"],
            calls["transport_op"]) == (1, 192, 1, 0)


def test_pkr_inverse_fault_fails_verify_all(capsys, monkeypatch):
    # the P-fibre tables are pkr_fibre images, so the pkr round trip
    # and the odd transport read off them both fail, as does kr's,
    # whose kr_inverse is a pkr_inverse, a call of pkr_fibre
    real = kw.pkr_fibre

    def reversed_fibre(p, m):
        inverse = real(p, m)
        return lambda t: inverse(t)[::-1]

    monkeypatch.setattr(kw, "pkr_fibre", reversed_fibre)
    code, out, err = run(capsys, "verify", "--suite", "all")
    assert code == 1
    assert err == ""
    report = json.loads(out)
    assert report["checked"] == 13519
    assert ({f["check"] for f in report["failures"]}
            == {"kr", "kr-fiber", "pkr", "fact-transport"})


def test_witnesses_print_through_the_text_codec(monkeypatch):
    # words and permutations in a witness are fmt_word/fmt_perm text,
    # as in the hm and pkr witnesses, not JSON lists
    real = kw.pkr_inverse
    monkeypatch.setattr(kw, "pkr_inverse",
                        lambda p, t, m: real(p, t, m)[::-1])
    monkeypatch.setattr(kw, "vee_bottom", lambda q, i, j: None)
    monkeypatch.setattr(tb, "enumerate_st", lambda shape: [])
    assert verify.check_kr_roundtrip(2, 2)["failures"][:2] == [
        {"check": "kr", "word": "01", "detail": "round trip failed"},
        {"check": "kr", "word": "10", "detail": "round trip failed"}]
    # one report: the kr-fiber witnesses, then the vee witnesses
    assert verify.check_kr_roundtrip(2, 1)["failures"][2:4] == [
        {"check": "kr-fiber", "perm": "2,1", "p": "1",
         "detail": "fiber has 1 of 0 tableaux"},
        {"check": "vee", "word": "0", "i": 1, "j": 1,
         "detail": "unimodal=True bottom=None"}]


def test_vee_lemma_runs_at_rank_n(monkeypatch):
    # the letter 3 is a reduced word at rank 4 only
    monkeypatch.setattr(kw, "vee_bottom", lambda q, i, j: None)
    assert {"check": "vee", "word": "3", "i": 1, "j": 1,
            "detail": "unimodal=True bottom=None"} in (
        verify.verify_bijections(4, 1)["failures"])


def test_pt_transport_records_a_rule_error(monkeypatch):
    def planted(out):
        raise ValueError("planted fault")

    _plant_f_bar1_pt(monkeypatch, planted)
    report = verify.check_pt_transport(2, 2)
    assert report["checked"] == 18  # 6 tableaux, 3 operators, 1 q each
    # in the order of their words 1, 2, 11, 12, 21, 22
    assert [f for f in report["failures"] if f["op"] == "f_bar1"] == [
        {"check": "pt-transport", "op": "f_bar1", "t": t, "q": q,
         "detail": "planted fault"}
        for t, q in (("1", "1"), ("2", "1"), ("1 1", "1 2"),
                     ("1 2", "1 2"), ("1 2'", "1 2"), ("2 2", "1 2"))]


def test_kr_fault_is_a_witness_of_kr_and_vee(capsys, monkeypatch):
    # kr rejecting a reduced word fails both sweeps that insert it, and
    # the report survives: exit 1, not the bad-input exit 2
    real = kw._row_step

    def planted(row, a):
        if row == (1,) and a == 0:
            raise kw.InsertionError("planted")
        return real(row, a)

    monkeypatch.setattr(kw, "_row_step", planted)
    code, out, err = run(capsys, "verify", "--suite", "bijections")
    assert (code, err) == (1, "")
    failures = json.loads(out)["failures"]
    assert {"check": "vee", "word": "10", "detail": "planted"} in failures
    assert {"check": "kr", "word": "10", "detail": "planted"} in failures


def test_weyl_walk_off_the_crystal_is_a_highlow_witness(capsys,
                                                         monkeypatch):
    # a pt model without colour-1 arrows: S_1 runs off every component
    # that has a vertex of nonzero 1-pairing, and the report survives
    real = models.model_pt

    def planted(n):
        return dataclasses.replace(
            real(n), arrows=lambda t: (None, None) + ptops.arrows_pt(t, n)[2:])

    monkeypatch.setattr(models, "model_pt", planted)
    code, out, err = run(capsys, "verify", "--suite", "highlow",
                         "--n", "3", "--max-size", "3")
    assert (code, err) == (1, "")
    failures = json.loads(out)["failures"]
    assert {"check": "highlow", "family": "pt", "n": 3, "shape": [2, 1],
            "detail": "S_1 ran off the crystal"} in failures
    assert {f["family"] for f in failures} == {"pt"}


def test_graph_missing_flags(capsys):
    code, _, err = run(capsys, "graph", "--model", "pt", "--n", "3")
    assert code == 2
    assert "--shape" in err


def test_enumerate_reduced(capsys):
    code, out, _ = run(capsys, "enumerate", "--what", "reduced",
                       "--perm", "3,2,-1")
    assert code == 0
    assert out == "0121\n0212\n2012\ncount 3\n"


def test_enumerate_reduced_identity(capsys):
    code, out, _ = run(capsys, "enumerate", "--what", "reduced",
                       "--perm", "1,2")
    assert code == 0
    assert out == "\ncount 1\n"


def test_enumerate_pt_count(capsys):
    code, out, _ = run(capsys, "enumerate", "--what", "pt",
                       "--n", "3", "--shape", "3,1")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "count 24"
    assert len(lines) == 25


def test_enumerate_pt_long_row(capsys):
    # one stack frame per cell would overflow here; a one-row PT of
    # length L over 1'..2 has 2L elements (1 1 .. 1 2' 2 .. 2, or no 2')
    code, out, err = run(capsys, "enumerate", "--what", "pt",
                         "--n", "2", "--shape", "1000")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "count 2000"


def test_enumerate_ssdt_long_row(capsys):
    # hooks are drawn letter by letter, not filtered from all n^L words;
    # a one-row SSDT of length L over 1..2 is 2..2 1..1 (L + 1 words) or
    # 2..2 1..1 2 with at least one 1 (L - 1 words)
    code, out, err = run(capsys, "enumerate", "--what", "ssdt",
                         "--n", "2", "--shape", "30")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert (len(lines), lines[-1]) == (61, "count 60")


def test_enumerate_factorizations(capsys):
    code, out, _ = run(capsys, "enumerate", "--what", "factorizations",
                       "--perm", "3,2,-1", "--m", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "count 162"
    assert "(+2012)()()" in lines


def test_verify_small_suites(capsys):
    for suite in ("axioms", "bijections", "equivalence", "highlow"):
        code, out, _ = run(capsys, "verify", "--suite", suite,
                           "--n", "2", "--max-size", "3")
        assert code == 0, suite
        report = json.loads(out)
        assert report["failures"] == []
        assert report["checked"] > 0


def test_verify_all_documented_run(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all",
                       "--n", "3", "--max-size", "5")
    assert code == 0
    report = json.loads(out)
    assert report["failures"] == []
    assert report["suite"] == "all"


def test_verify_equiv_single_perm(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "equivalence",
                       "--perm", "3,2,-1", "--m", "3")
    assert code == 0
    assert json.loads(out)["failures"] == []


def test_verify_corrupt_negative_control(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "axioms",
                       "--n", "2", "--max-size", "2", "--corrupt")
    assert code == 1
    assert json.loads(out)["failures"]


@pytest.mark.parametrize("suite,extra,kw", [
    ("axioms", [], {"corrupt": False}),
    ("axioms", ["--corrupt"], {"corrupt": True}),
    ("bijections", [], {}),
    ("equivalence", [], {"perm": None, "m": None}),
    ("equivalence", ["--perm", "2,-1", "--m", "2"], {"perm": (2, -1), "m": 2}),
    ("highlow", [], {}),
    ("all", ["--perm", "2,-1"], {"perm": (2, -1), "m": None}),
])
def test_verify_dispatches_through_suites(capsys, monkeypatch, suite, extra,
                                          kw):
    # each suite gets exactly the options _SUITE_OPTIONS lists for it
    calls = []

    def fake(n, max_size, **options):
        calls.append((n, max_size, options))
        return {"suite": suite, "checked": 1, "failures": []}

    monkeypatch.setitem(verify.SUITES, suite, fake)
    code, out, _ = run(capsys, "verify", "--suite", suite, "--n", "2",
                       "--max-size", "3", *extra)
    assert (code, calls) == (0, [(2, 3, kw)])


def test_verify_suite_choices_are_the_suites(capsys):
    with pytest.raises(SystemExit):
        cli.main(["verify", "--help"])
    out = capsys.readouterr().out
    assert "--suite {axioms,bijections,equivalence,highlow,all}" in out
    assert list(verify.SUITES) == ["axioms", "bijections", "equivalence",
                                   "highlow", "all"]


def test_verify_corrupt_rejected_elsewhere(capsys):
    code, _, err = run(capsys, "verify", "--suite", "highlow", "--corrupt")
    assert code == 2
    assert "corrupt" in err


def test_bad_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["insert", "--algo", "nope", "1"])
    assert exc.value.code == 2


def test_bad_shape(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["enumerate", "--what", "pt", "--n", "3", "--shape", "1,3"])
    assert exc.value.code == 2
    assert "strict" in capsys.readouterr().err


def test_bad_shape_trailing_comma(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["graph", "--model", "pt", "--n", "3", "--shape", "3,1,"])
    assert exc.value.code == 2
    assert "--shape" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["graph", "--model", "pt", "--n", "2", "--shape", "1",
     "--seed", "1 1 / 9"],
    ["graph", "--model", "pt", "--n", "3", "--shape", "2,1",
     "--seed", "1 1 1"],
    ["graph", "--model", "spt", "--m", "2", "--shape", "2,1",
     "--seed", "1 3 / 2"],
    ["graph", "--model", "words", "--n", "2", "--seed", "5"],
    ["graph", "--model", "fact", "--perm", "3,2,-1", "--m", "3",
     "--seed", "(+0)()()"],
    ["graph", "--model", "ssdt", "--n", "3", "--shape", "2,1",
     "--seed", "1 2 / 3"],
    ["insert", "--algo", "hm", "0"],
    ["verify", "--suite", "all", "--n", "0"],
    ["verify", "--suite", "all", "--max-size", "-1"],
    # empty text is a seed, not the absence of one
    ["graph", "--model", "pt", "--n", "3", "--shape", "2,1", "--seed", ""],
    ["graph", "--model", "ssdt", "--n", "3", "--shape", "2,1", "--seed", ""],
    ["graph", "--model", "spt", "--m", "3", "--shape", "2,1", "--seed", ""],
    ["graph", "--model", "fact", "--perm", "3,2,-1", "--m", "2",
     "--seed", ""],
], ids=["pt-range", "pt-shape", "spt-range", "words-letter",
        "fact-perm", "ssdt-invalid", "hm-zero", "verify-n0",
        "verify-size-neg", "pt-seed-empty", "ssdt-seed-empty",
        "spt-seed-empty", "fact-seed-empty"])
def test_bad_input_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv,message", [
    (["insert", "--algo", "kr", "0a"], "not a digit 'a' in word '0a'"),
    (["enumerate", "--what", "reduced", "--perm", "1,,2"],
     "not an integer '' in permutation '1,,2'"),
    (["enumerate", "--what", "reduced", "--perm", ""],
     "not an integer '' in permutation ''"),
    (["verify", "--suite", "equivalence", "--perm", ""],
     "not an integer '' in permutation ''"),
    (["verify", "--suite", "all", "--perm", ""],
     "not an integer '' in permutation ''"),
    (["graph", "--model", "pt", "--n", "3", "--shape", "2,1",
      "--seed", "1 x / 2"], "not a letter 'x' in tableau '1 x / 2'"),
    (["graph", "--model", "ssdt", "--n", "3", "--shape", "2,1",
      "--seed", "2 y / 1"], "not an integer 'y' in tableau '2 y / 1'"),
    (["graph", "--model", "pt", "--n", "3", "--shape", "2,,1"],
     "argument --shape: not an integer '' in shape '2,,1'"),
    # int() would take these; the formatters never print them
    (["graph", "--model", "pt", "--n", "3", "--shape", "1_1"],
     "argument --shape: not an integer '1_1' in shape '1_1'"),
    (["insert", "--algo", "kr", "٣"], "not a digit '٣' in word '٣'"),
    (["graph", "--model", "pt", "--n", "3", "--shape", "2",
      "--seed", "1 ٢"], "not a letter '٢' in tableau '1 ٢'"),
    (["graph", "--model", "pt", "--n", "3", "--shape", "2",
      "--seed", "1 +2"], "not a letter '+2' in tableau '1 +2'"),
    (["enumerate", "--what", "reduced", "--perm", "٢,١"],
     "not an integer '٢' in permutation '٢,١'"),
    (["enumerate", "--what", "reduced", "--perm", "+1"],
     "not an integer '+1' in permutation '+1'"),
    # the integer options go through the same reader
    (["enumerate", "--what", "pt", "--n", "٢", "--shape", "2,1"],
     "argument --n: not an integer '٢' in number '٢'"),
    (["verify", "--suite", "highlow", "--n", "+2", "--max-size", "1_0"],
     "argument --n: not an integer '+2' in number '+2'"),
    (["verify", "--suite", "highlow", "--n", "2", "--max-size", "1_0"],
     "argument --max-size: not an integer '1_0' in number '1_0'"),
    (["graph", "--model", "spt", "--m", "+2", "--shape", "1"],
     "argument --m: not an integer '+2' in number '+2'"),
], ids=["word-letter", "perm-empty-token", "perm-empty",
        "verify-equivalence-perm-empty", "verify-all-perm-empty",
        "primed-letter", "plain-entry", "shape-part", "shape-underscore",
        "word-arabic-digit", "primed-arabic-digit", "primed-plus",
        "perm-arabic-digits", "perm-plus", "n-arabic-digit", "n-plus",
        "max-size-underscore", "m-plus"])
def test_bad_text_names_the_token(capsys, argv, message):
    try:
        code, out, err = run(capsys, *argv)
    except SystemExit as exc:
        # argparse rejects a bad --shape or integer option itself: usage
        # lines, then one "qcrystal graph: error: ..." line
        code = exc.code
        out, err = capsys.readouterr()
        assert err.startswith("usage: ") and err.count("error:") == 1
        err = err.splitlines(keepends=True)[-1].split(": ", 1)[1]
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_words_seed_is_checked_by_the_model(capsys, monkeypatch):
    code, out, err = run(capsys, "graph", "--model", "words", "--n", "3",
                         "--seed", "14")
    assert (code, out) == (2, "")
    assert err == "error: letter 4 outside alphabet 1..3\n"
    # the message is model_words' validate, the one statement of 1..n
    monkeypatch.setattr(words, "validate",
                        lambda w, n: "planted" if w == (1, 3) else None)
    code, out, err = run(capsys, "graph", "--model", "words", "--n", "3",
                         "--seed", "13")
    assert (code, out, err) == (2, "", "error: planted\n")


def test_fact_seed_with_other_than_m_factors(capsys):
    # a reduced word of 2,-3,1 cut into 3 factors, where --m asks for 2
    code, out, err = run(capsys, "graph", "--model", "fact", "--perm",
                         "2,-3,1", "--m", "2", "--seed", "(+12)(+101)()")
    assert (code, out) == (2, "")
    assert err == "error: seed has 3 factors, expected 2\n"


@pytest.mark.parametrize("argv", [
    ["graph", "--model", "words", "--n", "10", "--seed", "1"],
    ["verify", "--suite", "axioms", "--n", "10", "--max-size", "1"],
])
def test_words_above_nine_rejected_quickly(capsys, argv):
    # letter 10 has no digit text, so the run stops at the first vertex
    # that would need it instead of growing toward the vertex cap
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert "0..9" in err


@pytest.mark.parametrize("argv,option", [
    (["verify", "--suite", "equivalence", "--perm", "3,2,-1", "--m", "0"],
     "--m"),
    (["enumerate", "--what", "pt", "--n", "0", "--shape", "1"], "--n"),
    (["enumerate", "--what", "ssdt", "--n", "0", "--shape", "1"], "--n"),
    (["enumerate", "--what", "factorizations", "--perm", "3,2,-1",
      "--m", "0"], "--m"),
    (["graph", "--model", "words", "--n", "0", "--seed", "1"], "--n"),
    (["graph", "--model", "pt", "--n", "0", "--shape", "1"], "--n"),
    (["graph", "--model", "ssdt", "--n", "-1", "--shape", "1"], "--n"),
    (["graph", "--model", "spt", "--m", "0", "--shape", "1"], "--m"),
    (["graph", "--model", "fact", "--perm", "1,2", "--m", "0"], "--m"),
], ids=["verify-m0", "enumerate-pt-n0", "enumerate-ssdt-n0",
        "enumerate-fact-m0", "graph-words-n0", "graph-pt-n0",
        "graph-ssdt-n-neg", "graph-spt-m0", "graph-fact-m0"])
def test_bound_below_one_names_the_option(capsys, argv, option):
    # each of these used to exit 0 (or 2 with an unrelated message):
    # verify --m 0 checked m = 1..3, enumerate --n 0 printed "count 0",
    # graph --model fact --m 0 printed the one vertex ""
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{option} must be at least 1" in err


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "equivalence", "--perm=-1,-2,-3", "--m", "1"],
    ["verify", "--suite", "all", "--n", "1", "--max-size", "1",
     "--perm=-1,-2,-3", "--m", "1"],
], ids=["equivalence", "all"])
def test_verify_that_checks_nothing_fails(capsys, argv):
    # -1,-2,-3 has no one-factor factorization; this used to exit 0
    # with "checked": 0
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == ("error: perm -1,-2,-3 has no factorization with m = 1: "
                   "nothing to check\n")


def test_verify_all_rejects_a_bad_perm_before_other_suites(capsys,
                                                           monkeypatch):
    def not_reached(*args, **kwargs):
        raise AssertionError("a suite ran before the perm was checked")

    monkeypatch.setattr(verify, "verify_axioms", not_reached)
    monkeypatch.setattr(verify, "verify_bijections", not_reached)
    code, out, err = run(capsys, "verify", "--suite", "all",
                         "--perm=-1,-2,-3", "--m", "1")
    assert code == 2
    assert out == ""
    assert err == ("error: perm -1,-2,-3 has no factorization with m = 1: "
                   "nothing to check\n")


@pytest.mark.parametrize("suite", ["axioms", "bijections", "highlow"])
@pytest.mark.parametrize("option,value", [("--perm", "2,1"), ("--m", "3")])
def test_verify_rejects_options_the_suite_ignores(capsys, suite, option,
                                                  value):
    code, out, err = run(capsys, "verify", "--suite", suite, "--n", "2",
                         "--max-size", "2", option, value)
    assert code == 2
    assert out == ""
    assert err == (f"error: {option} only applies to --suite equivalence "
                   "or all\n")


@pytest.mark.parametrize("argv,message", [
    (["graph", "--model", "ssdt", "--n", "3", "--shape", "2,1", "--m", "7"],
     "--m only applies to --model spt or fact"),
    (["graph", "--model", "words", "--n", "2", "--seed", "1", "--shape", "3"],
     "--shape only applies to --model pt or ssdt or spt"),
    (["graph", "--model", "fact", "--perm", "2,1", "--m", "2", "--n", "9"],
     "--n only applies to --model words or pt or ssdt"),
    (["graph", "--model", "spt", "--m", "2", "--shape", "2,1", "--perm", ""],
     "--perm only applies to --model fact"),
    (["enumerate", "--what", "pt", "--n", "2", "--shape", "2", "--perm", "1"],
     "--perm only applies to --what reduced or factorizations"),
    (["enumerate", "--what", "reduced", "--perm", "2,1", "--m", "2"],
     "--m only applies to --what factorizations"),
    (["enumerate", "--what", "factorizations", "--perm", "2,1", "--m", "2",
      "--shape", "1"], "--shape only applies to --what pt or ssdt"),
    (["enumerate", "--what", "reduced", "--perm", "2,1", "--n", "2"],
     "--n only applies to --what pt or ssdt"),
], ids=["graph-ssdt-m", "graph-words-shape", "graph-fact-n",
        "graph-spt-perm-empty", "enumerate-pt-perm", "enumerate-reduced-m",
        "enumerate-factorizations-shape", "enumerate-reduced-n"])
def test_graph_and_enumerate_reject_options_they_ignore(capsys, argv,
                                                        message):
    # these used to exit 0, the option silently ignored
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


# each graph model and enumerate family with every option it requires
_REQUIRED = [
    ("graph", "--model", "words", {"--n": "2", "--seed": "12"}),
    ("graph", "--model", "pt", {"--n": "3", "--shape": "2,1"}),
    ("graph", "--model", "ssdt", {"--n": "3", "--shape": "2,1"}),
    ("graph", "--model", "spt", {"--m": "3", "--shape": "2,1"}),
    ("graph", "--model", "fact", {"--perm": "2,1", "--m": "2"}),
    ("enumerate", "--what", "reduced", {"--perm": "2,1"}),
    ("enumerate", "--what", "factorizations", {"--perm": "2,1", "--m": "2"}),
    ("enumerate", "--what", "pt", {"--n": "2", "--shape": "2,1"}),
    ("enumerate", "--what", "ssdt", {"--n": "2", "--shape": "2,1"}),
]
_MISSING = [(command, selector, choice, options, missing)
            for command, selector, choice, options in _REQUIRED
            for missing in options]


@pytest.mark.parametrize(
    "command, selector, choice, options, missing", _MISSING,
    ids=[f"{c[0]}-{c[2]}-{c[4][2:]}" for c in _MISSING])
def test_missing_required_option_is_named(capsys, command, selector, choice,
                                          options, missing):
    given = [x for name, value in options.items() if name != missing
             for x in (name, value)]
    code, out, err = run(capsys, command, selector, choice, *given)
    assert (code, out, err) == (2, "", f"error: {missing} is required here\n")
    code, out, _ = run(capsys, command, selector, choice,
                       *[x for item in options.items() for x in item])
    assert code == 0 and out


@pytest.mark.parametrize("argv, missing", [
    (["graph", "--model", "fact"], "--m"),
    (["enumerate", "--what", "factorizations"], "--m"),
])
def test_two_missing_options_name_the_first_in_the_table(capsys, argv,
                                                         missing):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {missing} is required here\n")


def _set_first_row_end(rows, code):
    return None if rows is None else (rows[0][:-1] + (code,),) + rows[1:]


def _set_first_letter(word, letter):
    return None if word is None else (letter,) + word[1:]


def _each(fault):
    """An arrows kernel (b, n) with fault applied to every target."""
    return lambda op: lambda b, n: tuple(fault(x) for x in op(b, n))


# a model with alphabet 1..3, its options, and an operator fault that
# writes the letter 4 into every output, with the family check it then fails
_OUT_OF_ALPHABET = {
    "pt": (["--n", "3", "--shape", "2"], ptops, "arrows_pt",
           _each(lambda t: _set_first_row_end(t, 8)),
           "entry 4 at (1, 2) out of range"),
    "spt": (["--m", "3", "--shape", "2"], ptops, "arrows_signed",
            _each(lambda t: _set_first_row_end(t, 8)),
            "entry 4 at (1, 2) out of range"),
    "ssdt": (["--n", "3", "--shape", "2"], words, "arrows",
             _each(lambda w: _set_first_letter(w, 4)),
             "row 1 letter out of range 1..3"),
    "words": (["--n", "3", "--seed", "11"], words, "arrows",
              _each(lambda w: _set_first_letter(w, 4)),
              "letter 4 outside alphabet 1..3"),
}


@pytest.mark.parametrize("fmt", ["dot", "json"])
@pytest.mark.parametrize("model", _OUT_OF_ALPHABET)
def test_operator_output_outside_the_alphabet_exits_4(capsys, monkeypatch,
                                                      model, fmt):
    # the model's validate bounds the alphabet, so in either format the
    # fault is an internal error, never a printed vertex or a traceback
    options, module, name, fault, msg = _OUT_OF_ALPHABET[model]
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    code, out, err = run(capsys, "graph", "--model", model, *options,
                         "--format", fmt)
    assert (code, out) == (4, "")
    assert err == f"internal error: operator left the family: {msg}\n"
