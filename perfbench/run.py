"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload steady --seed 1 --seconds 10 --trace 0

Run from the root of a source tree (the ``repro`` package is imported from
``src/``).  ``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the same plan untraced and then traced, and reports the
per-layer metrics.  Every request is checked against the JIT-off
interpreter.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full result (environment, configuration, per-program
rows) and, when traced, a Chrome trace-event file go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import resource
import sys
import time

from hostspeed import probe_median
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
ORACLE_CACHE = os.path.join(ROOT, ".bench_build", "perfbench-oracle")
WORKLOAD_NAMES = ("steady", "cold_start", "phase_shift", "fleet")
#: set-ups per untraced run; setup_s is their median
SETUP_REPEATS = 3


def pin_environment() -> None:
    """Drop every engine/feature override so each Config field takes its
    default (the flags the ROADMAP plans to delete included)."""
    for key in list(os.environ):
        if key.startswith(("RERPO_", "REPRO_")):
            del os.environ[key]


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(wl, seed: int, seconds: int, trace: bool) -> dict:
    """Set up and run the workload's plan.  Untraced: several set-ups
    (median), then one measured pass.  Traced: an untraced pass, then a
    traced pass of the same plan on a fresh set-up."""
    out = {"setup_s": [], "setup_probe": []}
    if not trace:
        for i in range(SETUP_REPEATS):
            gc.collect()
            before = probe_median()
            t0 = time.perf_counter()
            plan = wl.plan(seed, seconds)
            state = wl.setup(plan)
            out["setup_s"].append(time.perf_counter() - t0)
            out["setup_probe"].append((before + probe_median()) / 2)
            if i < SETUP_REPEATS - 1:
                wl.close(state)
        t0 = time.perf_counter()
        out["records"] = wl.run(state, plan, None)
        out["wall_s"] = time.perf_counter() - t0
        wl.close(state)
        out["peak_rss_mb"] = peak_rss_mb()
        return out
    plan = wl.plan(seed, seconds)
    state = wl.setup(plan)
    t0 = time.perf_counter()
    out["records"] = wl.run(state, plan, None)
    out["wall_s"] = time.perf_counter() - t0
    wl.close(state)
    gc.collect()
    state = wl.setup(plan)
    tracer = Tracer()
    tracer.install()
    try:
        out["traced"] = wl.run(state, plan, tracer)
        wl.close(state)
    finally:
        tracer.uninstall()
    out["tracer"] = tracer
    out["peak_rss_mb"] = peak_rss_mb()
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: no repro package under %s; run from the root of "
              "a source tree" % SRC, file=sys.stderr)
        return 2
    pin_environment()
    sys.path.insert(0, SRC)

    import metrics
    from oracle import Oracle
    from workloads import WORKLOADS, make_config

    wl = WORKLOADS[args.workload]()
    m = measure(wl, args.seed, args.seconds, bool(args.trace))
    oracle = Oracle(ORACLE_CACHE, os.path.join(SRC, "repro"))
    failed = oracle.check(m["records"])
    records = m["records"]
    if args.trace:
        failed += oracle.check(m["traced"])
        records = records + m["traced"]

    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "config": dataclasses.asdict(make_config()),
    }
    result = metrics.summarize(wl, m, args.trace, failed, len(records))
    result["env"] = env
    result["errors"] = sorted({r["error"] for r in records if r["error"]})[:10]

    os.makedirs(OUT, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    if args.trace:
        trace_path = os.path.join(OUT, "trace-%s-seed%d.json" % (args.workload, args.seed))
        m["tracer"].write_chrome_trace(trace_path)
        result["chrome_trace"] = os.path.relpath(trace_path, ROOT)
    with open(os.path.join(OUT, stem + ".json"), "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)

    for line in metrics.report_lines(result):
        print(line)
    metric_set = result["per_layer"] if args.trace else result["end_to_end"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metric_set.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
