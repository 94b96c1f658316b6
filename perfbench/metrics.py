"""Turn a workload's request records and trace into named metrics."""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.jit.config import CostModel

import hostspeed
from stats import (COST_FEATURES, cost_features, fit_cost_model, median,
                   gmean_of_medians, tail)
from tracer import BOUNDARIES, COMPILE_LAYERS

#: snapshot-delta counts reported per traced pass (name -> record key)
COUNTS = {
    "compiles": "compiles", "lowered_instrs": "lowered_instrs",
    "code_size": "code_size", "deopts": "deopts",
    "deoptless_dispatches": "deoptless_dispatches",
    "deoptless_compiles": "deoptless_compiles", "osr_ins": "osr_ins",
    "osr_hops": "osr_hops", "cont_tierups": "cont_tierups",
    "shared_rebinds": "shared_rebinds", "kernel_elements": "kernel_elements",
    "pycodegen_failures": "pycodegen_failures", "telemetry.events": "events",
}


def _busy(rec: dict) -> float:
    """Seconds the request executed (fleet latency also counts queueing)."""
    return rec.get("busy", rec["lat"])


def _norm_busy(records: List[dict]) -> List[float]:
    return hostspeed.normalize([_busy(r) for r in records], [r["probe"] for r in records])


def _group(records: List[dict], lats: List[float], key: str = "program",
           pick=lambda r: True) -> Dict[str, List[float]]:
    rows: Dict[str, List[float]] = {}
    for r, lat in zip(records, lats):
        if pick(r):
            rows.setdefault(r[key], []).append(lat)
    return rows


def end_to_end(wl, m: dict, failed: int, attempted: int) -> Tuple[dict, dict, dict, dict]:
    """(gated metrics, workload-specific metrics, per-program rows, median
    ms per request kind).

    Times are normalized to the host-speed probe (see hostspeed.py); the
    raw figures are reported as ``*.raw``."""
    recs = m["records"]
    raw = [r["lat"] for r in recs]
    probes = [r["probe"] for r in recs]
    lats = hostspeed.normalize(raw, probes)
    rows = _group(recs, lats)
    raw_rows = _group(recs, raw)
    kinds = _group(recs, lats, "kind")
    tail_s, tail_pct = tail(lats)
    if wl.name == "fleet":
        # open loop: completions per second follow the offered rate
        throughput = raw_throughput = len(recs) / m["wall_s"]
    else:
        # closed loop, 1 client: requests over the time spent in them
        throughput = len(recs) / sum(_norm_busy(recs))
        raw_throughput = len(recs) / sum(_busy(r) for r in recs)
    e2e = {
        "setup_s": (median([t * hostspeed.REF_NS / p for t, p in
                            zip(m["setup_s"], m["setup_probe"])]), "s")
        if m["setup_s"] else None,
        "throughput_rps": (throughput, "1/s"),
        "request_ms_gmean": (1e3 * gmean_of_medians(kinds), "ms"),
        "request_ms_tail": (1e3 * tail_s, "ms"),
        "peak_rss_mb": (m["peak_rss_mb"], "MB"),
    }
    e2e = {k: v for k, v in e2e.items() if v is not None}
    extra = {
        "request_ms_tail.percentile": (tail_pct, "%"),
        "request_ms_tail.samples": (len(lats), "count"),
        "failed_frac": (failed / attempted, "fraction"),
        "throughput_rps.raw": (raw_throughput, "1/s"),
        "request_ms_gmean.raw": (1e3 * gmean_of_medians(_group(recs, raw, "kind")), "ms"),
        "request_ms_tail.raw": (1e3 * tail(raw)[0], "ms"),
        "host.probe_ms_median": (median(probes) / 1e6, "ms"),
        "host.probe_ms_p90": (sorted(probes)[int(0.9 * (len(probes) - 1))] / 1e6, "ms"),
    }
    if m["setup_s"]:
        extra["setup_s.raw"] = (median(m["setup_s"]), "s")
    shifts = _group(recs, lats, pick=lambda r: r["shift"])
    if wl.name == "phase_shift":
        shift_kinds = _group(recs, lats, "kind", lambda r: r["shift"])
        extra["post_shift_ms_gmean"] = (1e3 * gmean_of_medians(shift_kinds), "ms")
        extra["post_shift.samples"] = (sum(map(len, shifts.values())), "count")
    if wl.name == "fleet":
        limit = wl.LATENCY_LIMIT_MS / 1e3
        misses = sum(1 for r in recs if not r.get("ok") or r["lat"] > limit)
        late = [r["late"] for r in recs]
        extra["slo_miss_frac"] = (misses / len(recs), "fraction")
        extra["slo_limit_ms"] = (wl.LATENCY_LIMIT_MS, "ms")
        extra["offered_rps"] = (wl.RATE, "1/s")
        extra["generator_lateness_ms_median"] = (1e3 * median(late), "ms")
        extra["generator_lateness_ms_max"] = (1e3 * max(late), "ms")
    programs = {
        name: {"n": len(v), "median_ms": 1e3 * median(v),
               "lat_ms": [1e3 * x for x in v],
               "raw_lat_ms": [1e3 * x for x in raw_rows[name]],
               "tail_ms": 1e3 * tail(v)[0] if len(v) > 10 else None,
               "post_shift_median_ms": 1e3 * median(shifts[name]) if name in shifts else None}
        for name, v in sorted(rows.items())
    }
    kind_medians = {k: 1e3 * median(v) for k, v in sorted(kinds.items())}
    return e2e, extra, programs, kind_medians


def per_layer(m: dict) -> Tuple[dict, List[str], dict]:
    """(metrics, missing boundaries, main-thread self-time shares)."""
    tracer = m["tracer"]
    traced = m["traced"]
    agg = tracer.aggregate()
    out: Dict[str, Tuple[float, str]] = {}
    for name, _ in BOUNDARIES:
        if name in tracer.missing:
            continue
        calls, self_ns, _ = agg.get(name, (0, 0, 0))
        out[name + ".calls"] = (calls, "count")
        out[name + ".self_ms"] = (self_ns / 1e6, "ms")

    traced_s = sum(_busy(r) for r in traced)
    # host-speed-normalized, so the overhead is not host noise
    overhead = sum(_norm_busy(traced)) / sum(_norm_busy(m["records"]))
    compile_ns = sum(agg.get(n, (0, 0, 0))[1] for n in COMPILE_LAYERS)
    out["jit.compile_ms"] = (compile_ns / 1e6, "ms")
    out["jit.compile_share"] = (compile_ns / 1e9 / traced_s, "fraction")
    if "jit.deopt" not in tracer.missing:
        out["jit.deopt.total_ms"] = (agg.get("jit.deopt", (0, 0, 0))[2] / 1e6, "ms")

    tot = {k: sum(r["delta"][k] for r in traced) for k in traced[0]["delta"]}
    for name, key in COUNTS.items():
        out[name] = (tot[key], "count")

    hits = tot["codecache_hits"] + tot["stable_hits"] + tot["shared_cache_hits"]
    lookups = hits + tot["codecache_misses"]
    out["jit.codecache.lookups"] = (lookups, "count")
    out["jit.codecache.hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
    gets = agg.get("serve.shared_get", (0, 0, 0))[0]
    out["serve.shared.hits"] = (tot["shared_cache_hits"], "count")
    out["serve.shared.gets"] = (gets, "count")
    out["serve.shared.hit_ratio"] = (tot["shared_cache_hits"] / gets if gets else 0.0, "ratio")
    out["deoptless.dispatch_ratio"] = (
        tot["deoptless_dispatches"] / tot["deopts"] if tot["deopts"] else 0.0, "ratio")
    attempts = tot["osr_hops"] + tot["osr_hop_declines"]
    out["osr.hop_attempts"] = (attempts, "count")
    out["osr.hop_ratio"] = (tot["osr_hops"] / attempts if attempts else 0.0, "ratio")

    shifted = [r for r in traced if r["shift"]]
    out["shift.changes"] = (len(shifted), "count")
    out["shift.dispatch_frac"] = (
        sum(1 for r in shifted if r["delta"]["deoptless_dispatches"] > 0) / len(shifted)
        if shifted else 0.0, "fraction")

    fit = fit_cost_model([cost_features(r["delta"]) for r in m["records"]],
                         [1e9 * _busy(r) for r in m["records"]])
    for key in COST_FEATURES + ("ns_per_cycle",):
        out["jit.costmodel." + key] = (fit[key], "ns")
    out["jit.costmodel.fit_residual"] = (fit["fit_residual"], "ratio")
    out["jit.costmodel.default_residual"] = (fit["default_residual"], "ratio")

    top_ns = tracer.main_top_ns()
    out["trace.overhead"] = (overhead, "ratio")
    out["trace.wall_ms"] = (1e3 * traced_s, "ms")
    out["trace.uncovered_share"] = (1.0 - top_ns / 1e9 / traced_s, "fraction")
    out["trace.spans"] = (len(tracer.spans) + tracer.dropped, "count")
    out["trace.spans_dropped"] = (tracer.dropped, "count")
    out["trace.bg_self_ms"] = (tracer.background_self_ns() / 1e6, "ms")

    main = tracer.aggregate(main_only=True)
    shares = {name: rec[1] / 1e9 / traced_s for name, rec in main.items()}
    shares["uncovered"] = out["trace.uncovered_share"][0]
    return out, list(tracer.missing), dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def summarize(wl, m: dict, trace: int, failed: int, attempted: int) -> dict:
    e2e, extra, programs, kinds = end_to_end(wl, m, failed, attempted)
    result = {"workload": wl.name, "end_to_end": e2e, "extra": extra,
              "programs": programs, "kind_median_ms": kinds,
              "attempted": attempted, "failed": failed}
    if trace:
        layers, missing, shares = per_layer(m)
        result.update(per_layer=layers, missing=missing, self_share=shares)
        defaults = CostModel()
        result["costmodel_defaults_cycles"] = {k: getattr(defaults, k) for k in COST_FEATURES}
    return result


def report_lines(result: dict) -> List[str]:
    lines = ["workload %s: %d requests attempted, %d failed"
             % (result["workload"], result["attempted"], result["failed"])]
    for name, (value, unit) in list(result["end_to_end"].items()) + list(result["extra"].items()):
        lines.append("  %-34s %14.4f %s" % (name, value, unit))
    lines.append("  %-18s %6s %12s %12s %14s" % ("program", "n", "median_ms", "tail_ms", "post_shift_ms"))
    for name, row in result["programs"].items():
        lines.append("  %-18s %6d %12.3f %12s %14s" % (
            name, row["n"], row["median_ms"],
            "%.3f" % row["tail_ms"] if row["tail_ms"] is not None else "-",
            "%.3f" % row["post_shift_median_ms"] if row["post_shift_median_ms"] is not None else "-"))
    if "per_layer" in result:
        for name, (value, unit) in result["per_layer"].items():
            lines.append("  %-34s %14.4f %s" % (name, value, unit))
        for name in result["missing"]:
            lines.append("  %-34s %14s" % (name, "missing"))
        ns_per_cycle = result["per_layer"]["jit.costmodel.ns_per_cycle"][0]
        lines.append("  cost model weight: default (cycles x ns_per_cycle) vs fitted, ns")
        for name, cycles in result["costmodel_defaults_cycles"].items():
            lines.append("    %-24s %12.1f %12.1f" % (
                name, cycles * ns_per_cycle, result["per_layer"]["jit.costmodel." + name][0]))
        lines.append("  main-thread self-time share of traced wall time:")
        for name, share in result["self_share"].items():
            if share >= 0.005:
                lines.append("    %-32s %6.1f%%" % (name, 100 * share))
    return lines
