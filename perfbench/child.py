"""One benchmark step in a fresh interpreter; run.py starts it.

    python3 child.py setup
        time ``import qcrystal.cli``; print the seconds.
    python3 child.py gen '{"workload": ..., "seed": ...}'
        enumerate a tableau family and pick the start element by seed.
    python3 child.py pass '{"argv": [...], "trace": false, "spans": null}'
        run ``cli.main(argv)`` once with stdout captured; print a summary.

``qcrystal`` must be importable (run.py sets PYTHONPATH).  Only ``sys``
and ``time`` are imported before the timed import in ``setup`` mode, so
the measurement includes every module the CLI loads.
"""

import sys
import time


def setup():
    t0 = time.perf_counter()
    import qcrystal.cli  # noqa: F401
    sys.stdout.write(repr(time.perf_counter() - t0) + "\n")


FAMILIES = {
    "graph-pt": ("enumerate_pt", "fmt_primed", 4, (5, 3, 1)),
    "graph-ssdt": ("enumerate_ssdt", "fmt_plain", 5, (5, 3, 1)),
}


def gen(spec):
    import json
    import random
    from qcrystal import tableaux as tb
    enum, fmt, n, shape = FAMILIES[spec["workload"]]
    family = getattr(tb, enum)(n, shape)
    pick = family[random.Random(spec["seed"]).randrange(len(family))]
    print(json.dumps({"family_size": len(family),
                      "start": getattr(tb, fmt)(pick)}))


def _summarize(argv, text):
    """What the output gate needs from one CLI output."""
    import hashlib
    import json
    out = {"sha256": hashlib.sha256(text.encode()).hexdigest()}
    if argv[0] == "verify":
        report = json.loads(text)
        out["items"] = report["checked"]
        out["failures"] = len(report["failures"])
    elif "json" in argv:
        out["items"] = len(json.loads(text)["vertices"])
    else:
        out["items"] = sum(1 for line in text.splitlines()
                           if line.startswith('  "') and " -> " not in line)
    return out


def run_pass(spec):
    import contextlib
    import io
    import json
    import resource
    from qcrystal import cli
    tracer = None
    if spec["trace"]:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            t0 = time.perf_counter()
            rc = cli.main(spec["argv"])
            wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.restore()
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {"rc": rc, "wall_s": wall, "peak_rss_mib": rss_mib}
    if rc == 0:
        result.update(_summarize(spec["argv"], buf.getvalue()))
    if tracer is not None:
        result["layers"] = tracer.summary(wall)
        tracer.dump(spec["spans"])
    print(json.dumps(result))


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup()
    else:
        import json
        {"gen": gen, "pass": run_pass}[sys.argv[1]](json.loads(sys.argv[2]))
