"""Dispatch micro-benchmark — codegen and vectorized vs the reference loops.

Three layered acceptance bars on the native tier, each measured against the
reference if/elif loops (``Config.engine="ref"``, ``RERPO_REF_EXEC=1``):

* guard-hoisted loop vectorization (``opt/vectorize.py``) on the headline
  kernels (sum, colsum, spectralnorm, dotprod) must beat the reference
  scalar engine by a >=4.32x geomean and by each kernel's own floor, and
  must also beat scalar codegen (the same engine with ``vectorize`` off) by
  a >=3x geomean and by each kernel's own floor, so the bar isolates
  vectorization from codegen's own scalar speedup.  The
  loop-nest planner fuses spectralnorm's closure-call-per-element inner
  loops (map→reduce through the inlined ``eval_A``) and dotprod's
  VDOT/gather reductions into bulk kernels, so every kernel in the set must
  cover elements — there is no legitimately-scalar freeloader in the
  geomean;
* speculative call-target inlining (``opt/inline.py``) must buy a >=1.5x
  geomean over the guarded-call path (``Config.inline`` off) on the
  call-heavy group — small closures invoked from hot loops.  The
  ``call_poly`` workload drives a genuinely megamorphic site through the
  polymorphic inline cache; it is not inlinable by design and is reported
  separately (speedup ~1.0x, PIC hits on both configurations);
* the codegen engine (``native/pycodegen.py`` — one specialized exec'd
  function per unit, no per-op dispatch at all) must buy a >=1.95x geomean
  and >=1.21x per workload over the reference loops across a mixed group of
  loop kernels and call-heavy workloads (``BENCH_pycodegen.json``).

Both engines must produce identical dispatch signatures: kernel accounting
charges covered elements at exact scalar rates (the per-element op totals
of the replaced loop), so only wall-clock may differ.

Results are persisted as JSON via the harness (``benchmarks/results/`` or
``$REPRO_BENCH_JSON_DIR``) so CI can track both layers over time.
"""

import time

from conftest import bench_scale, report
from repro import Config, RVM, from_r
from repro.bench.harness import format_speedup_table, geomean, save_json
from repro.bench.programs import REGISTRY

#: the vectorization headline set: the original bulk kernels plus the two
#: loop-nest/fusion workloads (closure-fused spectralnorm, VDOT+gather
#: dotprod) that the nest planner promoted from scalar to kernelized
VEC_KERNELS = {
    "sum_phases": (4000, 40000),
    "colsum": (200, 2000),
    "spectralnorm": (16, 40),
    "dotprod": (2000, 20000),
}

#: per-kernel wall-clock floors (speedup vs the reference scalar engine).
#: Each is the kernel's earlier floor against the closure-threaded scalar
#: engine (8x sum/colsum, 3x spectralnorm/dotprod) times that kernel's
#: measured reference/threaded ratio, rounded up, so no bar got easier
#: when the threaded engine was removed.
VEC_FLOORS = {
    "sum_phases": 12.96,
    "colsum": 10.46,
    "spectralnorm": 4.22,
    "dotprod": 4.34,
}

#: geomean bar over VEC_KERNELS vs the reference scalar engine: the earlier
#: 3x-over-threaded bar times the geomean reference/threaded ratio
VEC_GEOMEAN_FLOOR = 4.32

#: per-kernel floors and geomean bar vs scalar codegen (vectorize off, same
#: engine): the earlier threaded-scalar floors, now against a faster scalar
#: baseline, so they measure vectorization alone
VEC_SCALAR_FLOORS = {
    "sum_phases": 8.0,
    "colsum": 8.0,
    "spectralnorm": 3.0,
    "dotprod": 3.0,
}
VEC_SCALAR_GEOMEAN_FLOOR = 3.0

#: the call-heavy group: monomorphic call sites the inliner splices
CALL_KERNELS = {
    "call_scalar": (6000, 60000),
    "call_chain": (4000, 40000),
    "call_nested": (5000, 50000),
    "call_default": (6000, 60000),
}

#: the codegen group: a mixed bag of loop kernels and call-heavy workloads —
#: the engine must pay for itself across both shapes, not just on one
CODEGEN_KERNELS = {
    "sum_phases": (4000, 40000),
    "colsum": (200, 2000),
    "call_scalar": (6000, 60000),
    "call_default": (6000, 60000),
    "spectralnorm": (16, 40),
}


def _time_engine(name, engine, n, vectorize=False, warmup=3, iters=7):
    w = REGISTRY.get(name)
    # engine and vectorize explicit, not defaulted: the reference scalar
    # baseline must stay what it claims to be under any RERPO_* setting
    cfg = Config(compile_threshold=1, osr_threshold=50, engine=engine,
                 vectorize=vectorize)
    vm = RVM(cfg)
    vm.eval(w.source)
    vm.eval(w.setup_code(n))
    call = w.call_code(n)
    for _ in range(warmup):
        vm.eval(call)
    times = []
    for _ in range(iters):
        t0 = time.perf_counter()
        vm.eval(call)
        times.append(time.perf_counter() - t0)
    return min(times), vm.state.dispatch_signature(), vm.state.kernel_elements


def test_vectorize_speedup(bench_scale):
    rows = []
    payload = {"scale": bench_scale, "kernels": {}}
    for name, (n_test, n_full) in VEC_KERNELS.items():
        n = n_full if bench_scale == "full" else n_test
        v_time, v_sig, v_ke = _time_engine(name, "codegen", n=n, vectorize=True)
        c_time, c_sig, _ = _time_engine(name, "codegen", n=n)
        r_time, r_sig, _ = _time_engine(name, "ref", n=n)
        speedup = r_time / v_time
        rows.append((name, speedup, "n=%d ke=%d" % (n, v_ke)))
        payload["kernels"][name] = {
            "n": n,
            "vectorized_s": v_time,
            "codegen_scalar_s": c_time,
            "reference_s": r_time,
            "speedup_vs_reference": speedup,
            "speedup_vs_codegen_scalar": c_time / v_time,
            "kernel_elements": v_ke,
            "native_ops": v_sig["native_ops"],
        }
        # kernel accounting is exact: one signature across every leg
        assert v_sig == c_sig, "%s: vectorized vs codegen scalar diverged" % name
        assert v_sig == r_sig, "%s: vectorized vs reference diverged" % name

    speedups = [s for _, s, _ in rows]
    payload["geomean_speedup_vs_reference"] = geomean(speedups)
    payload["geomean_speedup_vs_codegen_scalar"] = geomean(
        [k["speedup_vs_codegen_scalar"] for k in payload["kernels"].values()])
    # covered-only geomean: the same statistic over just the kernels whose
    # bulk kernels actually covered elements.  Reported alongside the
    # all-kernels figure so a future decline regression (a kernel silently
    # dropping back to scalar) shows up as the two numbers separating
    # instead of one blended mean drifting.
    covered = [
        (name, s) for (name, s, _), k in zip(rows, payload["kernels"].values())
        if k["kernel_elements"] > 0
    ]
    payload["covered_kernels"] = [name for name, _ in covered]
    payload["covered_geomean_speedup_vs_reference"] = (
        geomean([s for _, s in covered]) if covered else 0.0
    )
    payload["floors"] = dict(VEC_FLOORS)
    payload["geomean_floor"] = VEC_GEOMEAN_FLOOR
    payload["scalar_floors"] = dict(VEC_SCALAR_FLOORS)
    payload["scalar_geomean_floor"] = VEC_SCALAR_GEOMEAN_FLOOR
    path = save_json("BENCH_vectorize", payload)
    report(
        "Vectorize: bulk kernels vs reference scalar (native tier)",
        format_speedup_table(rows)
        + "\ngeomean %.2fx (covered-only %.2fx over %d/%d; %.2fx vs codegen"
        " scalar)  (results -> %s)"
        % (
            payload["geomean_speedup_vs_reference"],
            payload["covered_geomean_speedup_vs_reference"],
            len(covered), len(rows),
            payload["geomean_speedup_vs_codegen_scalar"], path,
        ),
    )

    # acceptance: the geomean bar on the headline kernels, every kernel
    # covers elements (the nest planner leaves no scalar freeloaders in this
    # set), and each kernel clears its own floor
    assert payload["geomean_speedup_vs_reference"] >= VEC_GEOMEAN_FLOOR, (
        "vectorization below the %.2fx bar (%.2fx)"
        % (VEC_GEOMEAN_FLOOR, payload["geomean_speedup_vs_reference"])
    )
    for name in VEC_KERNELS:
        assert payload["kernels"][name]["kernel_elements"] > 0, (
            "%s: bulk kernels never covered an element" % name
        )
    assert payload["covered_geomean_speedup_vs_reference"] >= VEC_GEOMEAN_FLOOR
    for name, speedup, _ in rows:
        assert speedup >= VEC_FLOORS[name], (
            "%s: below its %.2fx floor (%.2fx)" % (name, VEC_FLOORS[name], speedup)
        )
    # and vectorization alone, over the same engine with vectorize off
    assert (payload["geomean_speedup_vs_codegen_scalar"]
            >= VEC_SCALAR_GEOMEAN_FLOOR), (
        "vectorization below the %.2fx bar over scalar codegen (%.2fx)"
        % (VEC_SCALAR_GEOMEAN_FLOOR,
           payload["geomean_speedup_vs_codegen_scalar"])
    )
    for name, floor in VEC_SCALAR_FLOORS.items():
        speedup = payload["kernels"][name]["speedup_vs_codegen_scalar"]
        assert speedup >= floor, (
            "%s: below its %.2fx floor over scalar codegen (%.2fx)"
            % (name, floor, speedup)
        )


def _time_calls(name, inline, n, warmup=2, iters=5):
    """Time one call-heavy workload with the inliner on or off; returns
    (best wall-clock, result, pic hits, inlined frames)."""
    w = REGISTRY.get(name)
    cfg = Config(compile_threshold=1, osr_threshold=50)
    cfg.inline = inline
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
    return min(times), from_r(result), vm.state.pic_hits, vm.state.inlined_frames


def test_inline_speedup(bench_scale):
    rows = []
    payload = {"scale": bench_scale, "kernels": {}}
    for name, (n_test, n_full) in CALL_KERNELS.items():
        n = n_full if bench_scale == "full" else n_test
        i_time, i_res, _, i_frames = _time_calls(name, inline=True, n=n)
        g_time, g_res, _, g_frames = _time_calls(name, inline=False, n=n)
        speedup = g_time / i_time
        rows.append((name, speedup, "n=%d frames=%d" % (n, i_frames)))
        payload["kernels"][name] = {
            "n": n,
            "inlined_s": i_time,
            "guarded_s": g_time,
            "speedup": speedup,
            "inlined_frames": i_frames,
        }
        # inlining is an optimization, not a semantics change
        assert i_res == g_res, "%s: inline changed the result" % name
        assert i_frames > 0, "%s: nothing was inlined" % name
        assert g_frames == 0, "%s: inline=False still spliced frames" % name

    speedups = [s for _, s, _ in rows]
    payload["geomean_speedup"] = geomean(speedups)

    # the megamorphic workload exercises the PIC on both configurations and
    # is reported alongside (it is not part of the inlining geomean: the
    # site is polymorphic, so the inliner correctly leaves it alone)
    n_poly = REGISTRY.get("call_poly").n if bench_scale == "full" else 1500
    p_time, p_res, p_hits, _ = _time_calls("call_poly", inline=True, n=n_poly)
    q_time, q_res, q_hits, _ = _time_calls("call_poly", inline=False, n=n_poly)
    assert p_res == q_res
    assert p_hits > 0 and q_hits > 0, "megamorphic site never hit the PIC"
    payload["poly"] = {
        "n": n_poly,
        "inlined_s": p_time,
        "guarded_s": q_time,
        "speedup": q_time / p_time,
        "pic_hits": p_hits,
    }

    path = save_json("BENCH_inline", payload)
    report(
        "Inline: spliced callees vs guarded calls (native tier)",
        format_speedup_table(rows)
        + "\ncall_poly (PIC, not inlinable) %.2fx, %d pic hits"
        % (payload["poly"]["speedup"], p_hits)
        + "\ngeomean %.2fx  (results -> %s)" % (payload["geomean_speedup"], path),
    )

    # acceptance: splicing the callee must beat re-running the guarded call
    # protocol by >=1.5x overall, and every workload must improve
    assert payload["geomean_speedup"] >= 1.5, (
        "inlining below the 1.5x bar (%.2fx)" % payload["geomean_speedup"]
    )
    for name, speedup, _ in rows:
        assert speedup >= 1.1, "%s: inlining barely helps (%.2fx)" % (name, speedup)


def test_pycodegen_speedup(bench_scale):
    rows = []
    payload = {"scale": bench_scale, "kernels": {}}
    for name, (n_test, n_full) in CODEGEN_KERNELS.items():
        n = n_full if bench_scale == "full" else n_test
        c_time, c_sig, _ = _time_engine(name, "codegen", n=n)
        r_time, r_sig, _ = _time_engine(name, "ref", n=n)
        speedup = r_time / c_time
        rows.append((name, speedup, "n=%d" % n))
        payload["kernels"][name] = {
            "n": n,
            "codegen_s": c_time,
            "reference_s": r_time,
            "speedup_vs_reference": speedup,
            "native_ops": c_sig["native_ops"],
        }
        # the generated functions execute the same op stream: one signature
        # on both engines, only wall-clock may differ
        assert c_sig == r_sig, "%s: codegen vs reference diverged" % name

    speedups = [s for _, s, _ in rows]
    payload["geomean_speedup_vs_reference"] = geomean(speedups)
    path = save_json("BENCH_pycodegen", payload)
    report(
        "Codegen: exec'd per-unit functions vs reference loops (native tier)",
        format_speedup_table(rows)
        + "\ngeomean %.2fx  (results -> %s)"
        % (payload["geomean_speedup_vs_reference"], path),
    )

    # acceptance: the engine is the default because it pays for itself —
    # >=1.95x overall and >=1.21x on every workload.  These are the earlier
    # two-step bars multiplied through the removed threaded engine
    # (threaded/reference >=1.3x geomean and >=1.1x per kernel, then
    # codegen/threaded >=1.5x and >=1.1x).
    assert payload["geomean_speedup_vs_reference"] >= 1.95, (
        "codegen below the 1.95x bar (%.2fx)"
        % payload["geomean_speedup_vs_reference"]
    )
    for name, speedup, _ in rows:
        assert speedup >= 1.21, "%s: codegen barely helps (%.2fx)" % (name, speedup)
