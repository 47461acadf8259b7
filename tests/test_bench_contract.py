"""The traced benchmark reaches into qcrystal by name.

``perfbench/spans.py`` wraps the functions it lists in ``LAYERS`` and
``perfbench/child.py`` calls tableau functions named in ``FAMILIES``.
Both are loaded read-only here so that a rename or deletion in
``src/qcrystal`` fails a test instead of breaking the benchmark.
``perfbench/run.py`` is loaded the same way for the output digests of the
three graph workloads, so that a wrong operator or validator on primed
tableaux, decomposition tableaux or factorizations fails a test and not
only the benchmark's output gate.
"""

import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import pathlib

import pytest

from qcrystal import cli, engine, models
from qcrystal import tableaux as tb

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
child = _load("child")
run = _load("run")


@pytest.mark.parametrize("name", [n for n in spans.NAMES
                                  if not n.startswith("models.")])
def test_layer_function_resolves(name):
    mod, fn = name.split(".")
    assert callable(getattr(importlib.import_module(f"qcrystal.{mod}"), fn))


def test_model_builders_and_ops_resolve():
    fields = {f.name for f in dataclasses.fields(engine.CrystalModel)}
    assert set(spans.MODEL_OPS) <= fields
    for builder in spans.MODEL_BUILDERS:
        assert callable(getattr(models, builder))


def test_family_functions_resolve():
    for enum, fmt, _, _ in child.FAMILIES.values():
        assert callable(getattr(tb, enum))
        assert callable(getattr(tb, fmt))


def _assert_output_digest(name):
    workload = run.WORKLOADS[name]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(workload["argv"]) == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() \
        == workload["sha256"]


def test_graph_pt_output_matches_benchmark_digest():
    _assert_output_digest("graph-pt")


def test_graph_fact_output_matches_benchmark_digest():
    _assert_output_digest("graph-fact")


def test_graph_ssdt_output_matches_benchmark_digest():
    _assert_output_digest("graph-ssdt")
