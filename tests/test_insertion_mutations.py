"""Planted insertion faults are caught by verify's round-trip checks.

The insertions validate only their final tableaux.  Each fault is planted
by rewriting one line of the library's source, and the round-trip check
that verify runs on the faulty insertion, at its default bounds, must
stop on that final check's InvariantError.

The reverse insertions confirm their result with a forward insertion
(pkr_fibre one per removal order, then a recording per T).  A fault
planted in a reverse walk must be a witness of verify's round trip, and
must make the inverse raise NotInImage on an image pair that the faulty
walk undoes wrongly, which only the confirm can see.
"""

import inspect
import textwrap

import pytest

from qcrystal import kraskiewicz as kw
from qcrystal import mixed, verify
from qcrystal.tableaux import InvariantError, NotInImage

# verify's sub-checks at the bounds of verify --n 3 --max-size 5
ROUND_TRIPS = {
    "kr": lambda: verify.check_kr_roundtrip(3, 5),
    "pkr": lambda: verify.check_pkr_roundtrip(3, 5, 3),
    "hm": lambda: verify.check_hm_roundtrip(3, 5),
}

# name: (module, function, line fragment, its faulty replacement)
FAULTS = {
    "wrong-bump": (kw, "_row_step", "b = inc[j]", "b = inc[-1]"),
    "no-equality-increment": (kw, "_row_step", "c = a + 1", "c = a"),
    "no-101-rule": (kw, "_row_step", "if a == 0 and _has_101(row):",
                    "if False:"),
    "no-diagonal-priming": (mixed, "_insert",
                            "u -= 1  # primed off the diagonal", "pass"),
}

CASES = [(fault, check) for fault, (module, *_) in FAULTS.items()
         for check in (["hm"] if module is mixed else ["kr", "pkr"])]


def plant(monkeypatch, module, name, old, new):
    src = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert src.count(old) == 1, f"{old!r} is not one line of {name}"
    namespace = dict(vars(module))
    exec(compile(src.replace(old, new), module.__file__, "exec"), namespace)
    monkeypatch.setattr(module, name, namespace[name])


@pytest.mark.parametrize("fault, check", CASES,
                         ids=[f"{f}-{c}" for f, c in CASES])
def test_planted_insertion_fault_fails_verify(monkeypatch, fault, check):
    plant(monkeypatch, *FAULTS[fault])
    with pytest.raises(InvariantError,
                       match="^insertion produced an invalid tableau: "):
        ROUND_TRIPS[check]()


# name: (the fault, as in FAULTS; its round trip; an undoing of an image
# pair that the faulty walk gets wrong without raising)
REVERSE_FAULTS = {
    "unsigned-corner": (
        (kw, "pkr_fibre", "-1 if tb.code_primed(v) else 1", "1"),
        "pkr", lambda: kw.pkr_inverse(*kw.pkr(((-1, (0,)),)), m=1)),
    # T = 1' 2' 2 / 2: factor 2's unprimed cells were made along the
    # columns, (1, 1) before (0, 2), not down the rows
    "unprimed-by-row": (
        (kw, "pkr_fibre",
         "rc[0] if tb.code_primed(t_cells[rc]) else rc[1]", "rc[0]"),
        "pkr", lambda: kw.pkr_inverse(*kw.pkr(((-1, (0,)), (1, (2, 1, 0)))),
                                      m=2)),
    "right-predecessor": (
        (mixed, "_reverse_chain", "bisect_left(", "bisect_right("),
        "hm", lambda: mixed.hm_inverse(*mixed.hm((1, 2, 2, 1)))),
}


@pytest.mark.parametrize("fault", REVERSE_FAULTS)
def test_planted_reverse_fault_is_a_round_trip_witness(monkeypatch, fault):
    planted, check, _ = REVERSE_FAULTS[fault]
    plant(monkeypatch, *planted)
    assert ROUND_TRIPS[check]()["failures"]


@pytest.mark.parametrize("fault", REVERSE_FAULTS)
def test_planted_reverse_fault_is_not_in_image(monkeypatch, fault):
    planted, _, undo = REVERSE_FAULTS[fault]
    plant(monkeypatch, *planted)
    with pytest.raises(NotInImage):
        undo()
