"""Environment escape analysis benchmark — scalar replacement + promise elision.

The closure-heavy group (``src/repro/bench/programs/envcapture.py``) is the
worst case for the classic all-or-nothing environment heuristic: a single
captured name forces every local of the hot function through a materialized
``REnvironment`` (boxed loads/stores per iteration).  The escape analysis
(``opt/escape.py``) partitions the frame instead — captured names live in a
partial ``MkEnv`` environment, the loop state stays in unboxed SSA
registers, and provably forced-once effect-free lazy arguments skip promise
allocation entirely.

Acceptance (the ISSUE-8 bar): ``Config.escape`` on vs off on the same
default engine must buy a >=1.5x geomean across the group, and both
engines (reference loop, codegen) must produce bit-identical dispatch
signatures under *each* escape leg separately.  Like inlining, the
two legs execute genuinely different op streams (MKENV + register traffic
vs LD_VAR/ST_VAR through a full environment), so signatures are compared
within a leg, never across legs.

Results are persisted as ``BENCH_escape.json`` at the repo root (tracked;
``benchmarks/check_artifacts.py`` enforces freshness).
"""

import time

from conftest import bench_scale, report
from repro import Config, RVM, from_r
from repro.bench.harness import format_speedup_table, geomean, save_json
from repro.bench.programs import REGISTRY

#: the closure-heavy group — (workload, test-scale n, full-scale n)
ESCAPE_KERNELS = {
    "envcap_counter": (3000, 30000),
    "envcap_memo": (2500, 25000),
    "envcap_lazy": (3000, 30000),
}


def _time_escape(name, escape, n, engine="codegen", warmup=3, iters=7):
    """Time one workload with escape analysis on or off.

    Returns (best wall-clock, unwrapped result, dispatch signature,
    telemetry snapshot).
    """
    w = REGISTRY.get(name)
    cfg = Config(compile_threshold=1, osr_threshold=50)
    cfg.escape = escape
    cfg.engine = engine
    vm = RVM(cfg)
    vm.eval(w.source)
    vm.eval(w.setup_code(n))
    call = w.call_code(n)
    result = None
    for _ in range(warmup):
        result = vm.eval(call)
    times = []
    for _ in range(iters):
        t0 = time.perf_counter()
        result = vm.eval(call)
        times.append(time.perf_counter() - t0)
    return (min(times), from_r(result), vm.state.dispatch_signature(),
            vm.state.snapshot())


def test_escape_speedup(bench_scale):
    rows = []
    payload = {"scale": bench_scale, "kernels": {}}
    for name, (n_test, n_full) in ESCAPE_KERNELS.items():
        n = n_full if bench_scale == "full" else n_test
        e_time, e_res, _, e_snap = _time_escape(name, escape=True, n=n)
        b_time, b_res, _, b_snap = _time_escape(name, escape=False, n=n)
        speedup = b_time / e_time
        rows.append((name, speedup, "n=%d env_elided=%d promise_elided=%d"
                     % (n, e_snap["env_elided"], e_snap["promise_elided"])))
        payload["kernels"][name] = {
            "n": n,
            "escape_s": e_time,
            "baseline_s": b_time,
            "speedup": speedup,
            "env_elided": e_snap["env_elided"],
            "promise_elided": e_snap["promise_elided"],
            "env_remat": e_snap["env_remat"],
        }
        # scalar replacement is an optimization, not a semantics change
        assert e_res == b_res, "%s: escape analysis changed the result" % name
        # the pass must actually fire on its own target group
        assert e_snap["env_elided"] > 0, "%s: no environment was partitioned" % name
        assert b_snap["env_elided"] == 0, "%s: escape=0 still elided an env" % name

    # the lazy-argument workload is the promise-elision witness
    assert payload["kernels"]["envcap_lazy"]["promise_elided"] > 0, (
        "envcap_lazy: the promise allocation was not elided"
    )

    speedups = [s for _, s, _ in rows]
    payload["geomean_speedup"] = geomean(speedups)
    path = save_json("BENCH_escape", payload)
    report(
        "Escape: partitioned frames vs materialized environments (native tier)",
        format_speedup_table(rows)
        + "\ngeomean %.2fx  (results -> %s)" % (payload["geomean_speedup"], path),
    )

    # acceptance: partitioning the frame must beat the all-or-nothing
    # environment path by >=1.5x overall, and every workload must improve
    assert payload["geomean_speedup"] >= 1.5, (
        "escape analysis below the 1.5x bar (%.2fx)" % payload["geomean_speedup"]
    )
    for name, speedup, _ in rows:
        assert speedup >= 1.1, (
            "%s: escape analysis barely helps (%.2fx)" % (name, speedup)
        )


def test_escape_engines_agree(bench_scale):
    """Both engines produce one dispatch signature per escape leg.

    The kernel-accounting contract: the reference loop and codegen execute
    the same op stream for a given configuration, so only
    wall-clock may differ.  Checked under escape=1 and escape=0 separately —
    the legs themselves differ by design (MKENV + scalar registers vs full
    environment traffic), exactly like the inline 0/1 legs.
    """
    for name, (n_test, n_full) in ESCAPE_KERNELS.items():
        n = (n_full if bench_scale == "full" else n_test) // 2 or n_test
        for escape in (True, False):
            _, c_res, c_sig, _ = _time_escape(
                name, escape=escape, n=n, engine="codegen", warmup=2, iters=1)
            _, r_res, r_sig, _ = _time_escape(
                name, escape=escape, n=n, engine="ref", warmup=2, iters=1)
            leg = "escape=%d" % escape
            assert c_res == r_res, "%s %s: results diverged" % (name, leg)
            assert c_sig == r_sig, "%s %s: codegen vs reference diverged" % (name, leg)
