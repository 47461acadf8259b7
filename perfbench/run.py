"""Benchmark of the qcrystal command line, end to end and per layer.

    python3 perfbench/run.py --workload graph-pt --seed 1 --seconds 25 --trace 0

Each pass runs ``qcrystal.cli.main(argv)`` once in a fresh interpreter
(child.py), with stdout captured to a buffer.  Passes run one at a time
in a closed loop from this process, without threads: the next pass starts
when the previous one has ended, and no new pass starts once the next one
would end after ``--seconds`` (but at least MIN_PASSES run).  Every pass
goes through the output gate; a pass that fails it counts in ``failed``
and is never retried.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes that wrap each layer's public functions
(spans.py) and reports the per-layer metrics; the spans of the last traced
pass are written to .bench_build/perfbench/.  The last stdout line is the
JSON result; the lines before it are the human-readable report.  A record
with every sample and the provenance goes to .bench_build/perfbench/ too.
"""

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"
sys.path.insert(0, str(HERE))
import spans  # noqa: E402

# Digests and counts recorded from the CLI output at the commit that added
# this benchmark; byte-identical output is what "same behaviour" means.
# The graph digests do not depend on the start element: the whole
# component is printed in canonical order.
WORKLOADS = {
    "verify": {
        "argv": ["verify", "--suite", "all", "--n", "3", "--max-size", "5"],
        "items": 13519,
        "sha256": None,  # gated on checked and failures instead
    },
    "graph-pt": {
        "argv": ["graph", "--model", "pt", "--n", "4", "--shape", "5,3,1"],
        "items": 1280,
        "sha256": "d6043e03abc49cd36a9769ef44281a44"
                  "f7fd5571e3a4d2a3f81d145ffacf8a94",
    },
    "graph-ssdt": {
        "argv": ["graph", "--model", "ssdt", "--n", "5", "--shape", "5,3,1"],
        "items": 11200,
        "sha256": "5f4b020d21858720c4e95ef2652012f3"
                  "3a23e3592c030155a7a14f96692b54ac",
    },
    "graph-fact": {
        "argv": ["graph", "--model", "fact", "--perm", "2,-3,1", "--m", "4",
                 "--format", "json"],
        "items": 204,
        "sha256": "984f2a9c1d152a10cafee8fb7190bc8c"
                  "0742b23e47b4c74d9ae51c120e886c6d",
    },
}
MIN_PASSES = 3     # untraced: 3 plain passes; traced: plain, traced, traced
SETUP_PER_PASS = 3  # fresh interpreters timed on `import qcrystal.cli`
RUN_LIMIT_S = 170  # a run must end within 180 s, whatever --seconds says


def _child_env():
    env = dict(os.environ)
    env.pop("QCRYSTAL_MAX_VERTICES", None)  # the default cap is part of the input
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # time imports from cached bytecode
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    return env


def child(mode, spec, timeout):
    """Run child.py once; its last stdout line parsed, or None on failure."""
    cmd = [sys.executable, str(HERE / "child.py"), mode]
    if spec is not None:
        cmd.append(json.dumps(spec))
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env=_child_env(), cwd=ROOT,
                              timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        print(f"perfbench: {mode} child timed out", file=sys.stderr)
        return None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        print(f"perfbench: {mode} child exited {proc.returncode}: "
              + " | ".join(tail), file=sys.stderr)
        return None
    return json.loads(lines[-1])


def make_argv(name, seed, problems):
    """The workload's argv with a start element picked by the seed, and
    the family size the output must match (None where not enumerated)."""
    argv = list(WORKLOADS[name]["argv"])
    if name == "verify":
        return argv, None  # exhaustive: the seed picks nothing
    if name == "graph-fact":
        vertices = (HERE / "fact_vertices.txt").read_text().split()
        start = vertices[random.Random(seed).randrange(len(vertices))]
        return argv + ["--seed", start], None
    got = child("gen", {"workload": name, "seed": seed}, RUN_LIMIT_S / 2)
    if got is None:
        return None, None
    if got["family_size"] != WORKLOADS[name]["items"]:
        problems.append(f"family has {got['family_size']} elements, "
                        f"expected {WORKLOADS[name]['items']}")
    return argv + ["--seed", got["start"]], got["family_size"]


def gate(name, res, family_size):
    """Why one pass's output is wrong, or None when it is right."""
    wl = WORKLOADS[name]
    if res is None:
        return "no result"
    if res["rc"] != 0:
        return f"exit code {res['rc']}"
    if res["items"] != wl["items"]:
        return f"{res['items']} items, expected {wl['items']}"
    if family_size is not None and res["items"] != family_size:
        return f"{res['items']} vertices, family has {family_size}"
    if wl["sha256"] is not None and res["sha256"] != wl["sha256"]:
        return f"stdout sha256 {res['sha256'][:16]}... differs"
    if res.get("failures"):
        return f"{res['failures']} verification failures"
    return None


def tail_percentile(samples):
    """The highest whole percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return None
    k = n - 10
    return math.floor(100 * k / n), sorted(samples)[k - 1]


def provenance():
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            if proc.returncode == 0:
                commit = proc.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "commit": commit, "src_lines": src_lines}


def measure(name, argv, family_size, seconds, trace, begun):
    """Closed loop of passes; set-up samples are spread between them so
    that a burst of load on the machine does not land on all of them."""
    passes = []
    setup = []
    durations = []
    t0 = time.monotonic()
    while True:
        now = time.monotonic()
        guess = statistics.median(durations) if durations else 0.0
        if now - begun + guess > RUN_LIMIT_S:
            break
        if len(passes) >= MIN_PASSES and now - t0 + guess > seconds:
            break
        setup.extend(child("setup", None, 30) for _ in range(SETUP_PER_PASS))
        now = time.monotonic()
        traced = bool(trace) and len(passes) % 3 != 0  # plain, traced, traced
        spec = {"argv": argv, "trace": traced,
                "spans": str(OUT / f"spans-{name}.bin") if traced else None}
        res = child("pass", spec, RUN_LIMIT_S - (now - begun))
        durations.append(time.monotonic() - now)
        problem = gate(name, res, family_size)
        if problem:
            print(f"perfbench: pass {len(passes) + 1} failed: {problem}",
                  file=sys.stderr)
        passes.append({"traced": traced, "result": res, "problem": problem})
    return passes, [s for s in setup if s is not None]


def end_to_end(name, plain, setup):
    walls = [p["result"]["wall_s"] for p in plain]
    wall = statistics.median(walls)
    return {
        "wall_s": (wall, "s"),
        "items_per_s": (WORKLOADS[name]["items"] / wall, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mib": (statistics.median(
            p["result"]["peak_rss_mib"] for p in plain), "MiB"),
    }, walls


def per_layer(plain, traced, problems):
    layers = [p["result"]["layers"] for p in traced]
    for key in spans.EXACT:
        if len({lay[key] for lay in layers}) > 1:
            problems.append(f"{key} differs between traced passes: "
                            f"{[lay[key] for lay in layers]}")
    # counts stay whole numbers: median_low returns one of the samples
    out = {key: (statistics.median_low if isinstance(value, int)
                 else statistics.median)(lay[key] for lay in layers)
           for key, value in layers[0].items()}
    out["trace_overhead"] = (
        statistics.median(p["result"]["wall_s"] for p in traced)
        / statistics.median(p["result"]["wall_s"] for p in plain))
    units = {"calls": "count", "self_s": "s", "vertices": "count",
             "edges": "count", "op_calls_per_vertex": "count",
             "validate_share": "ratio", "trace_overhead": "ratio"}
    return {key: (out[key], units[key.rsplit(".", 1)[-1]])
            for key in spans.metric_names()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    begun = time.monotonic()
    if not (ROOT / "src" / "qcrystal" / "cli.py").is_file():
        print(f"perfbench: no qcrystal sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    problems = []
    argv, family_size = make_argv(args.workload, args.seed, problems)
    if argv is None:
        print("perfbench: could not generate the workload", file=sys.stderr)
        return 1
    child("setup", None, 30)  # warms the bytecode cache; not timed
    passes, setup = measure(args.workload, argv, family_size, args.seconds,
                            args.trace, begun)
    done = [p for p in passes if p["result"] is not None]
    plain = [p for p in done if not p["traced"]]
    traced = [p for p in done if p["traced"]]
    failed = sum(1 for p in passes if p["problem"])
    if not plain or not setup or (args.trace and not traced):
        print("perfbench: no pass produced a result", file=sys.stderr)
        return 1
    e2e, walls = end_to_end(args.workload, plain, setup)
    metrics = per_layer(plain, traced, problems) if args.trace else e2e

    prov = provenance()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}"
          + ("  (verify is exhaustive: the seed is ignored)"
             if args.workload == "verify" else ""))
    print("provenance " + json.dumps(prov, sort_keys=True))
    print("argv " + json.dumps(argv))
    tail = tail_percentile(walls)
    print(f"  {'wall_s':<14}{e2e['wall_s'][0]:.4f} s  median of {len(walls)} "
          + (f"plain passes, p{tail[0]} {tail[1]:.4f} s" if tail else
             "plain passes (no percentile has 10 samples beyond it)"))
    for key in ("items_per_s", "setup_s", "peak_rss_mib"):
        value, unit = e2e[key]
        print(f"  {key:<14}{value:.4f} {unit}")
    print(f"  {'failed_share':<14}{failed / len(passes):.4f} ratio  "
          f"({failed} of {len(passes)} passes)")
    if args.trace:
        print(f"per-layer, {len(traced)} traced passes (zeros omitted):")
        for key, (value, unit) in metrics.items():
            if value:
                print(f"  {key:<40}{value:.6g} {unit}")
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "argv": argv,
              "provenance": prov, "setup_s": setup, "passes": passes,
              "problems": problems}
    (OUT / f"record-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
