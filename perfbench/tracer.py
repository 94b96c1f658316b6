"""Outside-in layer tracing: spans around the calls into each layer.

The tracer patches each boundary function where its *caller* looks the
name up (a module global such as ``repro.jit.vm.lower``, or a class
attribute such as ``RVM.deopt``), so the program itself carries no tracing
code.  Every call through a patched name records a span.  Spans nest on a
per-thread stack; a span's self time is its duration minus the durations
of its direct children.  Aggregates (calls, self time, outermost inclusive
time) are kept per thread and merged on read; raw spans are kept in memory
up to a cap and can be written as Chrome trace-event JSON (Perfetto and
``chrome://tracing`` open it).
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from typing import Dict, List, Tuple

#: (boundary name, [(module, attribute path), ...]).  A boundary may be
#: reached through several names: ``lower`` is imported by name into three
#: modules, and native execution enters through ``execute`` (four callers)
#: and ``execute_at`` (dispatched OSR hops).
BOUNDARIES: List[Tuple[str, List[Tuple[str, str]]]] = [
    ("rlang.parse", [("repro.bytecode.compiler", "parse")]),
    ("bytecode.compile", [("repro.bytecode.compiler", "Compiler.compile_program")]),
    ("bytecode.interp", [("repro.bytecode.interpreter", "run")]),
    ("ir.build", [("repro.ir.builder", "GraphBuilder.build")]),
    ("ir.verify", [("repro.opt.pipeline", "verify")]),
    ("opt.inline", [("repro.opt.pipeline", "inline_calls")]),
    ("opt.simplify", [("repro.opt.pipeline", "simplify")]),
    ("opt.dse", [("repro.opt.pipeline", "dse")]),
    ("opt.dce", [("repro.opt.pipeline", "dce")]),
    ("opt.vectorize", [("repro.opt.pipeline", "vectorize_loops")]),
    ("native.lower", [("repro.jit.vm", "lower"),
                      ("repro.deoptless.engine", "lower"),
                      ("repro.osr.osr_in", "lower")]),
    ("native.codegen_emit", [("repro.native.pycodegen", "ensure_source")]),
    ("native.codegen_bind", [("repro.native.pycodegen", "bind")]),
    ("native.exec", [("repro.jit.vm", "execute"),
                     ("repro.deoptless.engine", "execute"),
                     ("repro.osr.osr_in", "execute"),
                     ("repro.native.executor", "execute"),
                     ("repro.native.executor", "execute_at")]),
    ("jit.deopt", [("repro.jit.vm", "RVM.deopt")]),
    ("jit.codecache_lookup", [("repro.jit.codecache", "CodeCache.lookup")]),
    ("jit.codecache_insert", [("repro.jit.codecache", "CodeCache.insert")]),
    ("deoptless.dispatch", [("repro.deoptless.engine", "try_deoptless")]),
    ("deoptless.compile", [("repro.deoptless.engine", "deoptless_compile")]),
    ("osr.osr_in", [("repro.osr.osr_in", "try_osr_in")]),
    ("osr.hop", [("repro.osr.osr_hop", "try_hop_out"),
                 ("repro.osr.osr_hop", "try_hop_in")]),
    ("osr.osr_out", [("repro.osr.osr_out", "resume_in_interpreter")]),
    ("serve.request", [("repro.serve.server", "Server._run")]),
    ("serve.shared_get", [("repro.serve.shared_cache", "SharedCodeCache.get")]),
    ("serve.shared_put", [("repro.serve.shared_cache", "SharedCodeCache.put")]),
    ("serve.fleet_build", [("repro.serve.fleet_queue", "FleetCompileQueue._run_group")]),
]

#: layers whose self time is compile work (the ROADMAP's "compile share")
COMPILE_LAYERS = (
    "ir.build", "ir.verify", "opt.inline", "opt.simplify", "opt.dse",
    "opt.dce", "opt.vectorize", "native.lower", "native.codegen_emit",
    "native.codegen_bind", "jit.codecache_insert", "deoptless.compile",
    "serve.fleet_build",
)


class _ThreadState:
    __slots__ = ("tid", "main", "stack", "depth", "agg", "top_ns")

    def __init__(self, tid: int, main: bool):
        self.tid = tid
        self.main = main
        #: open spans: [child_ns, span_id]
        self.stack: List[list] = []
        #: open spans per boundary, to find outermost spans
        self.depth: Dict[str, int] = {}
        #: boundary -> [calls, self_ns, outermost inclusive ns]
        self.agg: Dict[str, List[int]] = {}
        #: summed duration of this thread's top-level spans
        self.top_ns = 0


class Tracer:
    """Span recorder over the :data:`BOUNDARIES` of the program."""

    def __init__(self, max_spans: int = 200_000):
        self.max_spans = max_spans
        self.spans: List[tuple] = []
        self.dropped = 0
        #: id of the request the main thread is executing (-1: none)
        self.request_id = -1
        self.missing: List[str] = []
        self._tls = threading.local()
        self._threads: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._main_ident = threading.get_ident()
        self._patches: List[Tuple[object, str, object]] = []

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        """Patch every boundary; boundaries the program lacks are listed in
        :attr:`missing` instead of failing."""
        for name, sites in BOUNDARIES:
            found = False
            for module_name, attr_path in sites:
                try:
                    owner = importlib.import_module(module_name)
                except ImportError:
                    continue
                *owner_path, attr = attr_path.split(".")
                for part in owner_path:
                    owner = getattr(owner, part, None)
                if owner is None:
                    continue
                raw = owner.__dict__.get(attr) if isinstance(owner, type) \
                    else getattr(owner, attr, None)
                if raw is None:
                    continue
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(name, raw.__func__))
                elif callable(raw):
                    new = self._wrap(name, raw)
                else:
                    continue
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, new)
                found = True
            if not found:
                self.missing.append(name)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches = []

    def _thread_state(self) -> _ThreadState:
        ident = threading.get_ident()
        with self._lock:
            ts = _ThreadState(len(self._threads), ident == self._main_ident)
            self._threads.append(ts)
        self._tls.st = ts
        return ts

    def _wrap(self, name: str, fn):
        tls = self._tls
        clock = time.perf_counter_ns
        ids = self._ids
        spans = self.spans
        tracer = self

        def traced(*args, **kwargs):
            ts = getattr(tls, "st", None) or tracer._thread_state()
            stack = ts.stack
            parent = stack[-1][1] if stack else 0
            frame = [0, next(ids)]
            stack.append(frame)
            depth = ts.depth
            depth[name] = depth.get(name, 0) + 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                rec = ts.agg.get(name)
                if rec is None:
                    rec = ts.agg[name] = [0, 0, 0]
                rec[0] += 1
                rec[1] += dur - frame[0]
                d = depth[name] - 1
                depth[name] = d
                if d == 0:
                    rec[2] += dur
                if stack:
                    stack[-1][0] += dur
                else:
                    ts.top_ns += dur
                if len(spans) < tracer.max_spans:
                    spans.append((name, ts.tid, t0, t1, frame[1], parent,
                                  tracer.request_id if ts.main else -1))
                else:
                    tracer.dropped += 1

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- results --------------------------------------------------------------

    def aggregate(self, main_only: bool = False) -> Dict[str, List[int]]:
        """boundary -> [calls, self_ns, outermost inclusive ns], summed over
        threads (or over the main thread only)."""
        out: Dict[str, List[int]] = {}
        for ts in self._threads:
            if main_only and not ts.main:
                continue
            for name, (calls, self_ns, incl) in ts.agg.items():
                rec = out.setdefault(name, [0, 0, 0])
                rec[0] += calls
                rec[1] += self_ns
                rec[2] += incl
        return out

    def main_top_ns(self) -> int:
        return sum(ts.top_ns for ts in self._threads if ts.main)

    def background_self_ns(self) -> int:
        return sum(rec[1] for ts in self._threads if not ts.main
                   for rec in ts.agg.values())

    def write_chrome_trace(self, path: str) -> None:
        """Write the recorded spans as Chrome trace-event JSON."""
        base = min((s[2] for s in self.spans), default=0)
        events = [{
            "name": name, "cat": name.split(".")[0], "ph": "X",
            "ts": (t0 - base) / 1e3, "dur": (t1 - t0) / 1e3,
            "pid": 1, "tid": tid,
            "args": {"id": sid, "parent": parent, "request": rid},
        } for name, tid, t0, t1, sid, parent, rid in self.spans]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": {"spans_dropped": self.dropped}}, fh)
