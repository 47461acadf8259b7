"""Span tracing of qcrystal's public functions, installed from outside.

``Tracer.install()`` replaces each function named in ``LAYERS`` by a
wrapper on its module, and patches ``models.model_*`` so that every model
they build carries wrapped ``e``/``f``/``e_bar``/``f_bar`` callables.
``Tracer.restore()`` puts the originals back.  Each wrapped call records
one span: its name, start, end and the id of the enclosing span (-1 at the
root).  Spans stay in flat arrays in memory until ``dump()``.

A wrapper sees a call only when the caller looks the function up on its
module at call time (``tb.validate_pt(...)``, or a bare global name
inside the defining module).  It cannot see:

- names bound by ``from ... import`` before the wrappers were installed,
  such as ``typeb.is_unimodal`` (bound from ``tableaux``) and ``cli.main``
  as bound by ``qcrystal.__main__``;
- private helpers, which are not wrapped: ``models._ssdt_op``,
  ``mixed._insert``, ``kraskiewicz._insert``, ``ptops._signed``,
  ``factorization._transport``, ``engine._neighbors`` and the like.
  Their time shows up in the self time of the nearest wrapped caller.
"""

import dataclasses
import importlib
import json
import time
from array import array

LAYERS = {
    "cli": ("main",),
    "engine": ("component", "to_dot", "to_json", "check_gl_axioms",
               "check_q_axioms", "find_highest", "find_lowest"),
    "models": ("e", "f", "e_bar", "f_bar"),
    "ptops": ("e_even_pt", "f_even_pt", "e_bar1_pt", "f_bar1_pt",
              "e_signed", "f_signed", "transport_op"),
    "mixed": ("hm", "hm_inverse"),
    "kraskiewicz": ("kr", "kr_inverse", "pkr", "pkr_inverse", "validate_sdt"),
    "factorization": ("e_fact", "f_fact", "e_bar1_fact", "f_bar1_fact",
                      "e_bar1_transport", "f_bar1_transport"),
    "tableaux": ("validate_pt", "validate_st", "validate_ssdt",
                 "enumerate_pt", "enumerate_ssdt"),
    "words": ("e_even", "f_even", "e_bar1", "f_bar1"),
    "typeb": ("check_factorization", "enumerate_factorizations"),
    "verify": ("verify_axioms", "verify_bijections", "verify_equivalence",
               "verify_highlow"),
}
NAMES = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]
MODEL_OPS = ("e", "f", "e_bar", "f_bar")
MODEL_BUILDERS = ("model_words", "model_ssdt", "model_pt", "model_spt",
                  "model_fact")
VALIDATORS = ("tableaux.validate_pt", "tableaux.validate_st",
              "tableaux.validate_ssdt")
# counts that must repeat exactly between two traced passes of one code
EXACT = ("engine.component.op_calls_per_vertex", "mixed.hm.calls",
         "ptops.transport_op.calls", "kraskiewicz.pkr.calls",
         "typeb.check_factorization.calls")


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    out = [f"{name}.{kind}" for name in NAMES for kind in ("calls", "self_s")]
    return out + ["engine.component.vertices", "engine.component.edges",
                  "engine.component.op_calls_per_vertex",
                  "tableaux.validate_share", "trace_overhead"]


class Tracer:
    def __init__(self):
        self.parent = array("i")
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._saved = []
        self.vertices = 0
        self.edges = 0

    def _wrap(self, fn, code, on_result=None):
        parent, name, start, end = self.parent, self.name, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(name)
            name.append(code)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _count_graph(self, graph):
        self.vertices += len(graph.vertices)
        self.edges += len(graph.f_edges)

    def _patch(self, module, attr, new):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def install(self):
        for mod, fns in LAYERS.items():
            if mod == "models":
                continue
            module = importlib.import_module(f"qcrystal.{mod}")
            for fn in fns:
                name = f"{mod}.{fn}"
                hook = self._count_graph if name == "engine.component" else None
                self._patch(module, fn, self._wrap(
                    getattr(module, fn), NAMES.index(name), hook))
        models = importlib.import_module("qcrystal.models")
        for builder in MODEL_BUILDERS:
            self._patch(models, builder,
                        self._wrap_builder(getattr(models, builder)))

    def _wrap_builder(self, build):
        def traced_build(*args, **kwargs):
            model = build(*args, **kwargs)
            ops = {
                op: self._wrap(getattr(model, op), NAMES.index(f"models.{op}"))
                for op in MODEL_OPS if getattr(model, op) is not None
            }
            return dataclasses.replace(model, **ops)
        return traced_build

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def summary(self, wall_s: float) -> dict:
        """Calls and self time per name, plus the derived metrics.

        Self time is a span's duration minus the durations of its direct
        children; calls on one thread nest, so children never overlap.
        """
        n = len(self.name)
        child = array("d", bytes(8 * n))
        parent, name, start, end = self.parent, self.name, self.start, self.end
        component = NAMES.index("engine.component")
        model_codes = {NAMES.index(f"models.{op}") for op in MODEL_OPS}
        op_calls = 0
        for s in range(n):
            p = parent[s]
            if p >= 0:
                child[p] += end[s] - start[s]
                if name[p] == component and name[s] in model_codes:
                    op_calls += 1
        calls = [0] * len(NAMES)
        self_s = [0.0] * len(NAMES)
        for s in range(n):
            calls[name[s]] += 1
            self_s[name[s]] += end[s] - start[s] - child[s]
        out = {}
        for code, nm in enumerate(NAMES):
            out[f"{nm}.calls"] = calls[code]
            out[f"{nm}.self_s"] = self_s[code]
        out["engine.component.vertices"] = self.vertices
        out["engine.component.edges"] = self.edges
        out["engine.component.op_calls_per_vertex"] = (
            op_calls / self.vertices if self.vertices else 0.0)
        out["tableaux.validate_share"] = sum(
            out[f"{v}.self_s"] for v in VALIDATORS) / wall_s
        return out

    def dump(self, path):
        """Write the spans: a JSON header, then the raw column arrays."""
        header = {"names": NAMES, "count": len(self.name),
                  "columns": [["parent", "i"], ["name", "H"],
                              ["start", "d"], ["end", "d"]],
                  "clock": "time.perf_counter, seconds"}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in (self.parent, self.name, self.start, self.end):
                column.tofile(fh)
