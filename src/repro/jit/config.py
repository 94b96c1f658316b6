"""VM configuration.

All knobs of the reproduction in one place.  The deoptless bounds default to
the paper's values (section 4.3): at most 16 operand stack entries and 32
environment entries in a dispatchable context, and at most 5 continuations
per dispatch table.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field


#: the execution engines :attr:`Config.engine` accepts
ENGINES = ("codegen", "ref")


def _engine_default() -> str:
    """The codegen engine is the default; ``RERPO_REF_EXEC=1`` selects the
    reference loops in both tiers (the differential oracle)."""
    if os.environ.get("RERPO_REF_EXEC", os.environ.get("REPRO_REF_EXEC", "0")) == "1":
        return "ref"
    return "codegen"


def _inline_default() -> bool:
    """Speculative call-target inlining is on by default; ``RERPO_INLINE=0``
    disables the pass (CI covers the guarded-call path with this leg)."""
    return os.environ.get("RERPO_INLINE", os.environ.get("REPRO_INLINE", "1")) != "0"


def _vectorize_default() -> bool:
    """Guard-hoisted loop vectorization is on by default; ``RERPO_VECTORIZE=0``
    disables the pass (CI covers the scalar-loop-only path with this leg)."""
    return os.environ.get("RERPO_VECTORIZE", os.environ.get("REPRO_VECTORIZE", "1")) != "0"


def _escape_default() -> bool:
    """Global environment escape analysis (opt/escape.py + builder mixed
    mode) is on by default; ``RERPO_ESCAPE=0`` reverts to the all-or-nothing
    env-mode heuristic (CI covers that leg)."""
    return os.environ.get("RERPO_ESCAPE", os.environ.get("REPRO_ESCAPE", "1")) != "0"


def _codecache_default() -> bool:
    """The context-keyed code cache is on by default; ``RERPO_CODECACHE=0``
    disables it (CI covers the always-recompile path with this leg)."""
    return os.environ.get("RERPO_CODECACHE", os.environ.get("REPRO_CODECACHE", "1")) != "0"


def _codecache_dir_default():
    """Warm-start artifact directory; unset disables persistence."""
    return os.environ.get("RERPO_CODECACHE_DIR", os.environ.get("REPRO_CODECACHE_DIR")) or None


def _ctxdispatch_default() -> bool:
    """Entry contextual dispatch is on by default; ``RERPO_CTXDISPATCH=0``
    reverts to the single-version-per-closure baseline (CI covers it)."""
    return os.environ.get("RERPO_CTXDISPATCH", os.environ.get("REPRO_CTXDISPATCH", "1")) != "0"


def _osr_hop_default() -> bool:
    """Dispatched OSR between compiled versions (version-to-version hops at
    loop headers + continuation tier-up) is on by default; ``RERPO_OSR_HOP=0``
    reverts to terminal continuations and generic-only OSR (CI covers it)."""
    return os.environ.get("RERPO_OSR_HOP", os.environ.get("REPRO_OSR_HOP", "1")) != "0"


def _serve_default() -> bool:
    """The multi-tenant serving layer (repro/serve): shared code cache,
    fleet-wide background tier-up and request batching.  ``RERPO_SERVE=0``
    makes :class:`repro.serve.Server` degrade to fully isolated per-tenant
    VMs (no sharing, no coalescing; CI covers that leg)."""
    return os.environ.get("RERPO_SERVE", os.environ.get("REPRO_SERVE", "1")) != "0"


def _tierup_default() -> str:
    """Tier-up drain mode: ``sync`` (compile inline), ``step`` (explicit
    budgeted drain) or ``bg`` (worker thread).  ``RERPO_REF_EXEC=1`` forces
    ``sync`` — the reference-executor leg asserts bit-identical telemetry,
    which must not depend on drain timing."""
    if os.environ.get("RERPO_REF_EXEC", os.environ.get("REPRO_REF_EXEC", "0")) == "1":
        return "sync"
    mode = os.environ.get("RERPO_TIERUP", os.environ.get("REPRO_TIERUP", "sync"))
    return mode if mode in ("sync", "step", "bg") else "sync"


@dataclass
class Config:
    # -- execution engine --------------------------------------------------------
    #: ``"codegen"`` compiles each NativeCode unit to one specialized exec'd
    #: Python function (native/pycodegen.py) and runs the bytecode tier's
    #: batched fast loop; ``"ref"`` runs the if/elif reference loops of both
    #: tiers, the oracle codegen must match bit-for-bit in results and
    #: telemetry (tests/test_threaded_equivalence.py).  Deliberately absent
    #: from ``codecache.config_key``: the engine changes how units *run*,
    #: not what is lowered.
    engine: str = field(default_factory=_engine_default)

    # -- tiering ---------------------------------------------------------------
    #: enable the optimizing tier at all
    enable_jit: bool = True
    #: calls of a closure before it is natively compiled
    compile_threshold: int = 2
    #: enable OSR-in (interpreter loop -> native continuation)
    enable_osr_in: bool = True
    #: interpreter backedges before OSR-in triggers
    osr_threshold: int = 1000
    #: deoptimizations of one closure before the optimizer gives up on it
    max_deopts_per_function: int = 25
    #: dispatched OSR: mid-loop exits hop into a context-compatible compiled
    #: version at the equivalent pc (via the per-(version, pc) OSR entry
    #: map) instead of falling back to the interpreter, and hot deoptless
    #: continuations are promoted to full entry versions.  Keyed into the
    #: code cache (the flag changes what tier-up lowers and installs).
    osr_hop: bool = field(default_factory=_osr_hop_default)
    #: dispatches into one deoptless continuation (same compiled context)
    #: before it is promoted to a full version in the closure's VersionTable
    cont_tierup_threshold: int = 3

    # -- speculation -----------------------------------------------------------
    enable_speculation: bool = True
    enable_cold_branch_speculation: bool = True
    #: guard-hoisted loop vectorization (opt/vectorize.py): recognized
    #: counted loops execute as bulk kernels over the raw vector buffers.
    #: Kernel accounting charges per covered element at scalar rates (the
    #: exact per-iteration op/guard/generic counts of the replaced loop), so
    #: the cost model and dispatch signature are engine-independent; the
    #: real speedup shows up in wall-clock only (benchmarks/).
    vectorize: bool = field(default_factory=_vectorize_default)
    #: global environment escape analysis (opt/escape.py): functions whose
    #: local environment only escapes through analyzable closure/promise
    #: captures compile in mixed mode — provably-local slots become SSA
    #: registers, harmless captures drop their env edge, provably
    #: forced-once effect-free arguments skip promise allocation, and cold
    #: capture branches turn into ``Assume(env-not-captured)`` guards whose
    #: frame states rematerialize the elided environment at deopt
    escape: bool = field(default_factory=_escape_default)
    #: speculative call-target inlining (opt/inline.py): monomorphic
    #: ``CallFeedback`` sites splice the callee's IR under the existing
    #: identity guard.  Checkpoints inside the inlined body carry nested
    #: FrameStates; deopts there materialize the full frame chain.
    inline: bool = field(default_factory=_inline_default)
    #: cost model: max callee bytecode ops for an inline candidate
    inline_max_size: int = 48
    #: cost model: max inlined frame depth (1 = calls from the root function)
    inline_max_depth: int = 3
    #: cost model: total callee bytecode ops inlined per compilation unit
    inline_budget: int = 200

    # -- compilation subsystem (jit/codecache.py, jit/compile_queue.py) -----------
    #: context-keyed code cache: compiled units are shared across closures
    #: with content-identical code under the same speculation context, and
    #: repeat deoptless contexts recover in O(lookup) instead of O(pipeline)
    codecache: bool = field(default_factory=_codecache_default)
    #: LRU eviction bound, in cached compiled instructions
    codecache_budget: int = 100_000
    #: warm-start artifact directory (``RERPO_CODECACHE_DIR``); None disables
    #: persistence.  Stable entries are written by ``RVM.save_code_cache()``
    #: and probed on cache misses.
    codecache_dir: "str | None" = field(default_factory=_codecache_dir_default)
    #: how tier-up requests compile: "sync" inline (default), "step" queued
    #: until an explicit budgeted ``vm.drain_compile_queue()``, "bg" on a
    #: worker thread with main-thread installs
    tierup_mode: str = field(default_factory=_tierup_default)
    #: default compiled-instruction budget per ``drain()`` call (0: unbounded)
    tierup_drain_budget: int = 2000

    # -- multi-tenant serving (repro/serve) ---------------------------------------
    #: master switch for the serving layer: when False, ``serve.Server``
    #: runs every tenant on a fully isolated VM (no shared code cache, no
    #: fleet compile queue, no cold-start coalescing).  Per-tenant results
    #: and ``dispatch_signature`` are identical either way — sharing only
    #: changes how compiled code is *obtained* (see DESIGN.md,
    #: "Multi-tenant serving")
    serve: bool = field(default_factory=_serve_default)
    #: fleet-wide LRU budget of the process-shared code cache, in compiled
    #: instructions across all tenants (one budget for the whole fleet, not
    #: per-VM — the point is bounding total resident shared code)
    serve_shared_budget: int = 1_000_000

    # -- entry contextual dispatch (deoptless/dispatch.VersionTable) --------------
    #: dispatch function entries on a distilled CallContext: polymorphic
    #: call sites split into per-context compiled versions (argument guards
    #: hoisted to the dispatch check, unboxed parameter passing) instead of
    #: widening the single generic version
    ctxdispatch: bool = field(default_factory=_ctxdispatch_default)
    #: specialized versions per closure, on top of the generic fall-through
    dispatch_versions: int = 4
    #: distinct entry contexts a closure must exhibit before versions are
    #: compiled (1 would specialize monomorphic entries, pure overhead)
    dispatch_min_contexts: int = 2
    #: deopts attributed to one context before it stops being respecialized
    dispatch_max_context_deopts: int = 2
    #: when a dispatch/version table is full, evict the entry with the
    #: lowest (hit count, specificity) instead of refusing the insert.
    #: Default off: the paper's tables refuse at the bound.
    dispatch_evict: bool = False

    # -- deoptless (the paper's contribution) -----------------------------------
    enable_deoptless: bool = False
    #: dispatch-table bound (paper: "only allow up to 5 continuations")
    deoptless_max_continuations: int = 5
    #: context bounds (paper: stack <= 16, environment <= 32)
    deoptless_max_stack: int = 16
    deoptless_max_env: int = 32
    #: recompile when the best matching continuation is more than this many
    #: lattice steps more generic than the current context
    deoptless_recompile_distance: int = 4
    #: apply the type-feedback cleanup + inference pass (section 4.3)
    deoptless_feedback_repair: bool = True

    # -- chaos mode (section 5.1: randomly failing assumptions) ------------------
    #: probability that any executed Assume triggers a (spurious) deopt
    chaos_rate: float = 0.0
    chaos_seed: int = 42

    # -- unsound switches for regression tests ------------------------------------
    #: scan continuation escape info only from the entry pc (reproduces the
    #: dead-store/escape unsoundness anecdote of section 4.2)
    unsound_continuation_escape: bool = False
    #: unsoundly drop all deoptimization exit points in the backend — the
    #: paper's section 4.1 code-size experiment ("when we unsoundly dropped
    #: all deoptimization exit points ... performance was unchanged ...
    #: an effect on code size with 30%% more LLVM instructions")
    unsound_drop_deopt_exits: bool = False

    # -- misc ---------------------------------------------------------------------
    #: run the IR verifier after building and after optimizing (cheap for
    #: our graph sizes; catches malformed graphs before they execute)
    verify_ir: bool = True
    #: capture stdout of R programs into a buffer instead of printing
    capture_output: bool = True

    def __setattr__(self, name, value):
        if name == "engine" and value not in ENGINES:
            raise ValueError("Config.engine must be one of %s, not %r"
                             % (", ".join(map(repr, ENGINES)), value))
        object.__setattr__(self, name, value)


@dataclass
class CostModel:
    """Deterministic cycle accounting.

    Wall-clock on the host varies; these weights give a machine-independent
    "simulated cycles" number with the right relative magnitudes: one
    specialized native op is the unit, a generic interpreter op costs tens of
    units (dispatch + boxing + feedback), and compilation costs per IR
    instruction model the compile pauses visible in the paper's Figures 4/10.
    """

    native_op: float = 1.0
    #: extra weight for generic (boxed) native ops on top of native_op:
    #: a generic arith runs the full coercion dispatch of the runtime
    generic_op_extra: float = 60.0
    interp_op: float = 24.0
    guard: float = 1.0
    deopt_event: float = 400.0
    deoptless_dispatch: float = 60.0
    compile_per_instr: float = 220.0

    def cycles(self, telemetry) -> float:
        # a dispatched deopt does NOT pay the tier-down penalty: state
        # extraction + context dispatch is the (much smaller)
        # deoptless_dispatch cost — the design requirement the paper states
        # in section 3.2
        tier_downs = max(0, telemetry.deopts - telemetry.deoptless_dispatches)
        return (
            telemetry.native_ops * self.native_op
            + telemetry.native_generic_ops * self.generic_op_extra
            + telemetry.interp_ops * self.interp_op
            + telemetry.guards_executed * self.guard
            + tier_downs * self.deopt_event
            + telemetry.deoptless_dispatches * self.deoptless_dispatch
            + telemetry.compiled_instrs * self.compile_per_instr
        )
