"""The four benchmark workloads.

Each workload turns ``(seed, seconds)`` into a fixed request plan, sets up
its VMs or server, and runs the plan through the public API (``RVM.eval``
and ``serve.Server``) with ``Config(enable_deoptless=True)``.  The plan is
a whole number of *rounds*; every round holds the same multiset of
requests in a seeded order, so seeds change the order and the input
schedule but not the mix.  The number of rounds is ``seconds`` times a
constant per workload, fixed from the commit that introduced the
benchmark, so a faster program measures the same requests in less time.

Every request yields a record: program, prelude and request sources (for
the reference check), normalized outputs, latency, whether it is the first
request after an input change, and the VM's counter deltas.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Optional, Tuple

from repro import Config
from repro.bench.programs import REGISTRY
from repro.bench.programs.paper_examples import SUM_PHASE_SETUPS
from repro.jit.vm import RVM
from repro.serve import Server

from hostspeed import probe
from oracle import normalize, run_request


def make_config() -> Config:
    """The one configuration every workload runs: deoptless on, every other
    field at its default."""
    return Config(enable_deoptless=True)


#: snapshot() counters each request records as deltas
SNAPSHOT_KEYS = (
    "compiles", "lowered_instrs", "code_size", "deopts",
    "deoptless_dispatches", "deoptless_compiles", "osr_ins", "osr_hops",
    "cont_tierups", "shared_rebinds", "kernel_elements", "pycodegen_failures",
    "native_ops", "native_generic_ops", "interp_ops", "guards",
    "compiled_instrs", "codecache_hits", "codecache_misses",
    "shared_cache_hits", "osr_hop_declines",
)


def counters(vm: Optional[RVM]) -> Dict[str, int]:
    if vm is None:
        return dict.fromkeys(SNAPSHOT_KEYS + ("events", "stable_hits"), 0)
    snap = vm.state.snapshot()
    out = {k: snap[k] for k in SNAPSHOT_KEYS}
    out["events"] = len(vm.state.events)
    # stable-layer hits (memory and disk) are not in snapshot(); a shared
    # hit is counted in shared_cache_hits
    out["stable_hits"] = vm.state.codecache_stable_hits + vm.state.codecache_disk_hits
    return out


def _delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {k: after[k] - before[k] for k in after}


def _record(program, prelude, steps, got, lat, delta, probe_ns, shift=False,
            error=None, kind=None):
    """``kind`` names the request type (program, plus input variant or
    session step) whose median latency enters the geometric mean."""
    return {"program": program, "kind": kind or program,
            "prelude": prelude, "steps": steps,
            "got": got, "lat": lat, "delta": delta, "probe": probe_ns,
            "shift": shift, "error": error}


def _shuffled_rounds(programs, seed: int, rounds: float) -> List[str]:
    """Every program once per round, each round in a seeded order."""
    rng = random.Random(seed)
    order: List[str] = []
    for _ in range(max(1, round(rounds))):
        names = sorted(programs)
        rng.shuffle(names)
        order += names
    return order


def _timed(vm: RVM, program: str, prelude, steps: List[str], tracer, rid: int,
           shift: bool = False, kind: Optional[str] = None) -> dict:
    """One closed-loop request on a long-lived VM."""
    probe_ns = probe()
    before = counters(vm)
    if tracer is not None:
        tracer.request_id = rid
    error = None
    t0 = time.perf_counter()
    try:
        got = [run_request(vm, s) for s in steps]
    except Exception as e:  # a failing request is counted, not fatal
        got, error = None, "%s: %s" % (type(e).__name__, e)
    lat = time.perf_counter() - t0
    return _record(program, prelude, steps, got, lat,
                   _delta(counters(vm), before), probe_ns, shift, error, kind)


# ---------------------------------------------------------------------------
# steady
# ---------------------------------------------------------------------------

class Steady:
    """One warmed, long-lived VM per compute-heavy program; closed loop, 1
    client.  Measures generated-code speed; compiles and deopts are ~0."""

    name = "steady"
    #: program -> problem size (requests of ~5-40 ms once warm)
    PROGRAMS = {
        "mandelbrot": 16, "nbody": 40, "spectralnorm": 16, "dotprod": 1000,
        "storage": 20, "fannkuchredux": 6, "call_chain": 2000,
        "ctx_poly_mix3": 90, "envcap_lazy": 3000, "flexclust": 80,
    }
    WARMUP_CALLS = 6
    ROUNDS_PER_SECOND = 5.0

    def plan(self, seed: int, seconds: int) -> List[str]:
        return _shuffled_rounds(self.PROGRAMS, seed, seconds * self.ROUNDS_PER_SECOND)

    def setup(self, plan) -> dict:
        vms = {}
        for name, n in self.PROGRAMS.items():
            w = REGISTRY.get(name)
            vm = RVM(make_config())
            vm.eval(w.source)
            vm.eval(w.setup_code(n))
            call = w.call_code(n)
            for _ in range(self.WARMUP_CALLS):
                vm.eval(call)
            vms[name] = (vm, (w.source, w.setup_code(n)), call)
        return vms

    def run(self, vms, plan, tracer) -> List[dict]:
        records = []
        for rid, name in enumerate(plan):
            vm, prelude, call = vms[name]
            records.append(_timed(vm, name, prelude, [call], tracer, rid))
        return records

    def close(self, vms) -> None:
        vms.clear()


# ---------------------------------------------------------------------------
# cold_start
# ---------------------------------------------------------------------------

class ColdStart:
    """Each request is a job on a fresh, isolated VM: load one program's
    source and setup at test size, then make 3 calls.  Closed loop, 1
    client.  Interpreter and compile layers dominate."""

    name = "cold_start"
    #: program -> test size
    PROGRAMS = {
        "bounce": 8, "mandelbrot": 12, "nbody": 10, "spectralnorm": 8,
        "fannkuchredux": 5, "flexclust": 40, "storage": 20, "binarytrees": 4,
        "primes": 500, "reopt_rsa": 30, "call_poly": 1500,
        "envcap_lazy": 3000, "ctx_poly_mix3": 90, "call_chain": 4000,
    }
    CALLS = 3
    #: program of the untimed warm-up job in set-up
    WARMUP_PROGRAM = "bounce"
    ROUNDS_PER_SECOND = 0.4

    def plan(self, seed: int, seconds: int) -> List[str]:
        return _shuffled_rounds(self.PROGRAMS, seed, seconds * self.ROUNDS_PER_SECOND)

    def _job(self, name: str):
        w = REGISTRY.get(name)
        n = self.PROGRAMS[name]
        prelude = (w.source, w.setup_code(n))
        return prelude, list(prelude) + [w.call_code(n)] * self.CALLS

    def setup(self, plan) -> dict:
        jobs = {name: self._job(name) for name in self.PROGRAMS}
        vm = RVM(make_config())
        for src in jobs[self.WARMUP_PROGRAM][1]:
            vm.eval(src)
        return jobs

    def run(self, jobs, plan, tracer) -> List[dict]:
        records = []
        zero = counters(None)
        for rid, name in enumerate(plan):
            prelude, steps = jobs[name]
            probe_ns = probe()
            if tracer is not None:
                tracer.request_id = rid
            vm = None
            error = None
            t0 = time.perf_counter()
            try:
                vm = RVM(make_config())
                got = [run_request(vm, s) for s in steps]
            except Exception as e:  # a failing request is counted, not fatal
                got, error = None, "%s: %s" % (type(e).__name__, e)
            lat = time.perf_counter() - t0
            records.append(_record(name, prelude, steps, got, lat,
                                   _delta(counters(vm), zero), probe_ns,
                                   error=error))
        return records

    def close(self, jobs) -> None:
        jobs.clear()


# ---------------------------------------------------------------------------
# phase_shift
# ---------------------------------------------------------------------------

def _volcano_frame(interp: str, scale: str, hmap: str) -> str:
    return ("img <- trace_rays(%s, vw, vh, sunx, suny, 0.35, %s)\n"
            "render_image(img, %s, vw, vh, %s)" % (hmap, interp, hmap, scale))


#: the volcano session's three user-controlled dimensions (paper Figure 8);
#: an input is one bit per dimension, and the session visits the base view
#: and each single-dimension change of it
VOLCANO_DIMS = (("interp_bilinear", "interp_nearest"),
                ("1.0", "1L"),
                ("hm_dbl", "hm_int"))

_COLSUM_TABLES = """
tbl_int <- list()
tbl_dbl <- list()
for (ci in 1L:cols) {
  ti <- integer(rows)
  td <- numeric(rows)
  for (ri in 1:rows) { ti[[ri]] <- ri; td[[ri]] <- ri * 0.5 }
  tbl_int[[ci]] <- ti
  tbl_dbl[[ci]] <- td
}
"""


def _phase_programs() -> Dict[str, Tuple[str, str, Dict[str, str], str]]:
    """program -> (source, setup, {variant: request}, warm-up variant)."""
    progs = {}
    w = REGISTRY.get("volcano")
    variants = {}
    for bits in ("000", "100", "010", "001"):
        variants[bits] = _volcano_frame(*(VOLCANO_DIMS[d][int(b)] for d, b in enumerate(bits)))
    progs["volcano"] = (w.source, w.setup_code(10) + "sunx <- 1.0; suny <- 0.6\n",
                        variants, "000")
    for name, fn, extra in (("phaseflip_sum", "pf_sum", ""),
                            ("phaseflip_dot", "pf_dot", ", pf_wi"),
                            ("phaseflip_twice", "pf_twice", "")):
        w = REGISTRY.get(name)
        progs[name] = (w.source, w.setup_code(2000), {
            "noflip": "%s(pf_ai, pf_ai%s, pf_n)" % (fn, extra),
            "flip": "%s(pf_ai, pf_br%s, pf_n)" % (fn, extra),
        }, "noflip")
    w = REGISTRY.get("reopt_rsa")
    progs["reopt_rsa"] = (w.source, w.setup_code(30), {
        "int": "rsa_run(rsa_msgs, rsa_n, rsa_key_int, rsa_mod, 2L)",
        "dbl": "rsa_run(rsa_msgs, rsa_n, rsa_key_dbl, rsa_mod, 2L)",
    }, "int")
    w = REGISTRY.get("colsum")
    progs["colsum"] = (w.source, w.setup_code(50) + _COLSUM_TABLES, {
        "alt": "columnwiseSum(tbl)",
        "int": "columnwiseSum(tbl_int)",
        "dbl": "columnwiseSum(tbl_dbl)",
    }, "alt")
    w = REGISTRY.get("sum_phases")
    n = 200
    setup = w.setup_code(n) + "".join(
        "%s\nsum_%s <- data\n" % (code.format(n=n), kind)
        for kind, code in sorted(SUM_PHASE_SETUPS.items()))
    progs["sum_phases"] = (w.source, setup, {
        kind: "data <- sum_%s\nsum()" % kind for kind in SUM_PHASE_SETUPS
    }, "int")
    return progs


class PhaseShift:
    """Long-lived VMs receive a seeded schedule of input changes that
    refute speculation; closed loop, 1 client, no chaos mode.  A segment
    is an input change followed by ``SEGMENT - 1`` more requests on the new
    input.  Each round switches every program into each of its inputs
    once, in a seeded order, with the segments of all programs shuffled
    together."""

    name = "phase_shift"
    SEGMENT = 3
    WARMUP_CALLS = 4
    ROUNDS_PER_SECOND = 1.6

    def __init__(self):
        self.programs = _phase_programs()

    def plan(self, seed: int, seconds: int) -> List[Tuple[str, str, bool]]:
        """[(program, variant, is_first_after_change)]"""
        rng = random.Random(seed)
        cur = {name: p[3] for name, p in self.programs.items()}
        out = []
        for _ in range(max(1, round(seconds * self.ROUNDS_PER_SECOND))):
            segments = []
            for name in sorted(self.programs):
                order = sorted(self.programs[name][2])
                rng.shuffle(order)
                if order[0] == cur[name]:
                    # a segment must change the input
                    order.append(order.pop(0))
                cur[name] = order[-1]
                segments.append([(name, v) for v in order])
            # interleave programs, keeping each program's own order
            picks = [i for i, seg in enumerate(segments) for _ in seg]
            rng.shuffle(picks)
            for i in picks:
                name, variant = segments[i].pop(0)
                out += [(name, variant, j == 0) for j in range(self.SEGMENT)]
        return out

    def setup(self, plan) -> dict:
        vms = {}
        for name, (source, setup, variants, base) in self.programs.items():
            vm = RVM(make_config())
            vm.eval(source)
            vm.eval(setup)
            for _ in range(self.WARMUP_CALLS):
                vm.eval(variants[base])
            vms[name] = vm
        return vms

    def run(self, vms, plan, tracer) -> List[dict]:
        records = []
        for rid, (name, variant, shift) in enumerate(plan):
            source, setup, variants, _ = self.programs[name]
            records.append(_timed(vms[name], name, (source, setup),
                                  [variants[variant]], tracer, rid, shift,
                                  "%s/%s" % (name, variant)))
        return records

    def close(self, vms) -> None:
        vms.clear()


# ---------------------------------------------------------------------------
# fleet
# ---------------------------------------------------------------------------

class Fleet:
    """A serving-on ``Server`` driven as an open loop at a fixed offered
    rate from one client thread: inline request execution, one fleet
    compile worker.  Seeded tenants join during the run; each replays one
    program's session.  The first tenant of each program publishes to the
    shared code cache, later tenants read and rebind.  Latency counts from
    each request's due time."""

    name = "fleet"
    #: offered load, requests per second (fixed)
    RATE = 20.0
    #: latency limit for slo_miss_frac, ms (fixed)
    LATENCY_LIMIT_MS = 50.0
    #: tenants with a session in progress at any time
    ACTIVE = 3
    #: program -> (size, warm request, refuting request or None)
    MIX = {
        "volcano": (6, _volcano_frame("interp_bilinear", "1.0", "hm_dbl"),
                    _volcano_frame("interp_nearest", "1.0", "hm_dbl")),
        "phaseflip_sum": (100, "pf_sum(pf_ai, pf_ai, pf_n)",
                          "pf_sum(pf_ai, pf_br, pf_n)"),
        "call_chain": (200, None, None),
        "call_poly": (80, None, None),
        "ctx_poly_mix3": (20, None, None),
    }
    #: calls per session before and after the refuting request
    CALLS_BEFORE, CALLS_AFTER = 3, 2

    def _session(self, name: str) -> Tuple[tuple, List[Tuple[str, bool]]]:
        n, warm, refute = self.MIX[name]
        w = REGISTRY.get(name)
        setup = w.setup_code(n)
        if name == "volcano":
            setup += "sunx <- 1.0; suny <- 0.6\n"
        call = warm or w.call_code(n)
        steps = [(w.source, False), (setup, False)]
        steps += [(call, False)] * self.CALLS_BEFORE
        steps.append((refute, True) if refute else (call, False))
        steps += [(call, False)] * self.CALLS_AFTER
        return (w.source, setup), steps

    def plan(self, seed: int, seconds: int) -> List[Tuple[str, str, int, str, bool]]:
        """[(tenant, program, session step, request source, is_refuting)]"""
        rng = random.Random(seed)
        sessions = {name: self._session(name) for name in self.MIX}
        per_session = len(next(iter(sessions.values()))[1])
        total = max(1, round(seconds * self.RATE))
        programs: List[str] = []
        while len(programs) * per_session < total + self.ACTIVE * per_session:
            names = sorted(self.MIX)
            rng.shuffle(names)
            programs += names
        joining = iter(enumerate(programs))
        active = []
        out = []
        while len(out) < total:
            while len(active) < self.ACTIVE:
                i, name = next(joining)
                active.append(["t%03d-%s" % (i, name), name, 0])
            slot = rng.randrange(len(active))
            tenant, name, pos = active[slot]
            src, refuting = sessions[name][1][pos]
            out.append((tenant, name, pos, src, refuting))
            active[slot][2] += 1
            if active[slot][2] == per_session:
                active.pop(slot)
        return out

    def setup(self, plan) -> dict:
        # untimed process warm-up: one isolated VM per program replays a
        # session outside the server, so the shared cache starts empty
        for name in self.MIX:
            vm = RVM(make_config())
            for src, _ in self._session(name)[1]:
                vm.eval(src)
        srv = Server(config_factory=make_config, workers=0, compile_workers=1)
        preludes = {name: self._session(name)[0] for name in self.MIX}
        return {"server": srv, "preludes": preludes}

    def run(self, state, plan, tracer) -> List[dict]:
        srv: Server = state["server"]
        records = []
        interval = 1.0 / self.RATE
        start = time.perf_counter()
        for rid, (tenant, name, step, src, refuting) in enumerate(plan):
            due = start + rid * interval
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
            sess = srv.sessions.get(tenant)
            before = counters(sess.vm if sess else None)
            mark = len(sess.vm.output) if sess else 0
            if tracer is not None:
                tracer.request_id = rid
            error = None
            t0 = time.perf_counter()
            try:
                value = srv.eval(tenant, src)
            except Exception as e:  # a failing request is counted, not fatal
                value, error = None, "%s: %s" % (type(e).__name__, e)
            t1 = time.perf_counter()
            vm = srv.sessions[tenant].vm
            got = None if error else [normalize(value, vm.output[mark:])]
            # the host-speed probe runs in the slack after the request
            rec = _record(name, state["preludes"][name], [src], got, t1 - due,
                          _delta(counters(vm), before), probe(), refuting,
                          error, "%s/%d" % (name, step))
            rec["busy"] = t1 - t0
            rec["late"] = t0 - due
            records.append(rec)
        return records

    def close(self, state) -> None:
        srv: Server = state["server"]
        threads = list(srv.fleet.threads) if srv.fleet is not None else []
        srv.close()
        for t in threads:
            t.join(timeout=60)
            if t.is_alive():
                raise RuntimeError("fleet compile worker did not stop")


WORKLOADS = {cls.name: cls for cls in (Steady, ColdStart, PhaseShift, Fleet)}
