"""The deoptless engine (paper Listing 6).

Extends the VM's ``deopt`` with:

    if (deoptlessCondition(fs, r)) {
        ctx = computeCtx(fs, r)
        fun = dispatch(ctx)
        if (!fun || recompile(fun, ctx)) fun = deoptlessCompile(ctx)
        if (fun) return fun(fs)
    }
    // rest same as normal deopt

The origin version of the function is **retained**: deoptless never
invalidates it (that is the whole point — Figure 2 versus Figure 1).
"""

from __future__ import annotations

from typing import Any, Optional

from ..bytecode import interpreter
from ..ir.builder import CompilationFailure, GraphBuilder
from ..native.executor import execute
from ..native.lower import NativeCode, lower
from ..opt.pipeline import optimize
from ..osr.framestate import CATASTROPHIC_REASONS, DeoptReason, FrameState
from ..runtime.rtypes import RType
from .context import DeoptContext, compute_context
from .dispatch import DispatchTable
from .feedback_repair import repair_feedback

#: sentinel: deoptless did not handle the deopt, fall through to normal path
MISS = object()


def deoptless_condition(vm, fs: FrameState, reason: DeoptReason, origin) -> bool:
    """``deoptlessCondition`` — which deopts deoptless even attempts."""
    if not vm.config.enable_deoptless:
        return False
    if reason.kind in CATASTROPHIC_REASONS:
        return False  # code is permanently invalid; must be discarded
    if origin is not None and origin.is_deoptless_continuation:
        return False  # no recursive deoptless (paper section 4.3)
    # NOTE: deopts inside inlined code (fs.parent is not None) are *not*
    # excluded — this lifts the paper's section-4.3 limitation.  The context
    # is keyed on the inlinee's pc, the frame depth, and the reason; the
    # continuation runs the innermost frame natively and the enclosing
    # frames resume in the interpreter (call_continuation).
    if fs.fun is None or fs.fun.jit is None:
        return False  # no per-function dispatch table to hang the code on
    return True


def try_deoptless(vm, fs: FrameState, reason: DeoptReason, origin) -> Any:
    """Attempt dispatched OSR; returns the continuation's result or MISS."""
    if not deoptless_condition(vm, fs, reason, origin):
        return MISS
    ctx = compute_context(fs, reason, vm.config)
    if ctx is None:
        vm.state.deoptless_bailouts += 1
        return MISS

    table: DispatchTable = fs.fun.jit.deoptless_table
    fun: Optional[NativeCode] = table.dispatch(ctx)
    if fun is None or _recompile(vm, fun, ctx):
        new = deoptless_compile(vm, fs, reason, ctx)
        if new is not None:
            if table.insert(ctx, new):
                vm.state.code_size += new.size
                victim = table.last_evicted
                if victim is not None:
                    # Config.dispatch_evict displaced a cold continuation:
                    # release its accounting and fence off stale dispatches
                    table.last_evicted = None
                    victim.code.invalidated = True
                    vm.state.code_size -= victim.code.size
                    vm.state.dispatch_evictions += 1
                fun = new
            elif fun is None:
                # table bound reached and nothing compatible: real deopt
                vm.state.dispatch_refusals += 1
                vm.state.deoptless_bailouts += 1
                return MISS
        elif fun is None:
            vm.state.deoptless_misses += 1
            return MISS

    vm.state.deoptless_dispatches += 1
    vm.state.emit(
        "deoptless_dispatch", fs.code.name,
        pc=fs.pc, reason=reason.kind.value, table_size=len(table),
    )
    return call_continuation(vm, fun, fs, reason)


def _recompile(vm, fun: NativeCode, ctx: DeoptContext) -> bool:
    """``recompile`` heuristic: the matching continuation is too generic."""
    compiled_ctx = getattr(fun, "deoptless_ctx", None)
    if compiled_ctx is None:
        return False
    return ctx.distance(compiled_ctx) > vm.config.deoptless_recompile_distance


def deoptless_compile(vm, fs: FrameState, reason: DeoptReason, ctx: DeoptContext) -> Optional[NativeCode]:
    """``deoptlessCompile``: build a specialized continuation for ``ctx``.

    The code cache is consulted first: the key is the code's content hash,
    the full dispatch context (pc, depth, reason payload, stack/env types)
    and the *repaired* feedback signature — everything the builder below
    reads — so a repeat context (same mis-speculation in a sibling closure,
    a re-evaluated program, or a restarted VM via the warm-start store)
    recovers in O(lookup) instead of O(pipeline), skipping IR construction,
    verification and lowering wholesale.
    """
    code = fs.code
    if vm.config.deoptless_feedback_repair:
        feedback = repair_feedback(code, reason, ctx)
    else:
        feedback = code.feedback

    key = None
    if vm.code_cache is not None:
        from ..jit import codecache

        key = codecache.continuation_key(code, ctx, vm.config, feedback)
        template = vm.code_cache.lookup(key, vm, code)
        if template is not None:
            shared = vm.code_cache.last_hit_shared
            ncode = template.clone_for_install()
            ncode.closure = fs.fun
            if shared:
                # another tenant already compiled this recovery: rebound in
                # O(lookup), accounted as the compile it replaces so the
                # session's dispatch_signature is fleet-independent
                vm._account_shared_rebind(ncode, is_continuation=True)
            vm.state.emit("codecache_hit", code.name, unit="cont", pc=fs.pc,
                          size=ncode.size)
            return ncode

    injected = {}
    if isinstance(reason.observed, RType):
        injected[reason.pc] = reason.observed
    try:
        builder = GraphBuilder(
            vm, code, fs.fun,
            entry_pc=fs.pc,
            entry_var_types=dict(ctx.env_types),
            entry_stack_types=list(ctx.stack_types),
            is_continuation=True,
            injected_types=injected,
            feedback_override=feedback,
        )
        graph = builder.build()
        optimize(graph, vm.config, vm=vm)
        ncode = vm.emit_codegen(lower(graph))
    except CompilationFailure as e:
        vm.state.compile_failures += 1
        vm.state.emit("deoptless_compile_failed", code.name, error=str(e))
        return None
    ncode.closure = fs.fun
    ncode.is_deoptless_continuation = True
    ncode.deoptless_ctx = ctx
    if key is not None:
        vm.code_cache.insert(key, ncode, vm, code)
    vm.state.deoptless_compiles += 1
    vm.state.compiles += 1
    vm.state.compiled_instrs += ncode.size
    vm.state.lowered_instrs += ncode.size
    vm.state.emit("deoptless_compile", code.name, pc=fs.pc, size=ncode.size,
                  reason=reason.kind.value)
    return ncode


def call_continuation(vm, ncode: NativeCode, fs: FrameState, reason=None) -> Any:
    """Invoke a continuation, passing the extracted state directly.

    The calling convention matches the paper's: the environment is *not*
    materialized for register-promoted code — locals are passed in a buffer
    (here: the argument list); env-mode continuations receive the live or
    re-materialized environment object.
    """
    # Register hotness with the owning closure's jit state: every dispatch
    # into a continuation (cached or fresh) counts toward tier-up.  Keyed on
    # the context the continuation was *compiled* for, so repeat recoveries
    # that dispatch to the same entry accumulate on one counter.  A None
    # entry marks a context already promoted to a full entry version.
    ctx = getattr(ncode, "deoptless_ctx", None)
    if ctx is not None and fs.fun is not None and fs.fun.jit is not None:
        st = fs.fun.jit
        hits = st.cont_hits
        if hits is None:
            hits = st.cont_hits = {}
        cur = hits.get(ctx, 0)
        if cur is not None:
            hits[ctx] = cur + 1
            if (reason is not None
                    and cur + 1 >= vm.config.cont_tierup_threshold):
                maybe_tier_up_continuation(vm, fs, reason, ctx, st)
    if ncode.env_elided:
        if fs.env_values is not None and fs.env is not None:
            # mixed (escape) frame: locals are split between scalar slots
            # and the partial environment — merge before buffer-passing
            values = dict(fs.env.bindings)
            values.update(fs.env_values)
        elif fs.env_values is not None:
            values = fs.env_values
        else:
            values = fs.env.bindings
        args = [values.get(n) for n in ncode.cont_var_names] + list(fs.stack)
    else:
        args = [fs.materialize_env()] + list(fs.stack)
    closure_env = fs.closure_env if fs.closure_env is not None else (
        fs.fun.env if fs.fun is not None else None
    )
    result = execute(ncode, args, vm, closure_env=closure_env)
    # If the deopt happened inside an *inlined* frame, the continuation only
    # covered the innermost (callee) frame; unwind the recorded parent chain
    # in the interpreter, pushing each callee's return value (same resume
    # convention as osr_out.resume_in_interpreter).
    parent = fs.parent
    while parent is not None:
        stack = list(parent.stack)
        stack.append(result)
        result = interpreter.run(parent.code, parent.materialize_env(), vm, stack, parent.pc)
        parent = parent.parent
    return result


def maybe_tier_up_continuation(vm, fs: FrameState, reason: DeoptReason,
                               ctx: DeoptContext, st) -> None:
    """Continuation tier-up (dispatched OSR, part 2).

    A continuation dispatched ``cont_tierup_threshold`` times is evidence
    the entry speculation is systematically wrong for this calling pattern:
    promote it to a *full* entry version compiled under the repaired
    feedback (no re-speculation of the refuted fact) and install it in the
    closure's version table, so repeat recoveries are absorbed at the call
    boundary instead of re-entering through a deopt.  Root frames only — an
    inlined-frame recovery context has no entry calling convention to
    promote to.  One attempt per context, success or not (``cont_hits``
    keeps a None tombstone).
    """
    from ..osr import osr_hop

    st.cont_hits[ctx] = None
    cfg = vm.config
    if not cfg.osr_hop or fs.parent is not None or ctx.depth != 1:
        return
    closure = fs.fun
    if st.cant_compile:
        return
    values = osr_hop._frame_values(fs)
    if values is None:
        return
    call_ctx = osr_hop._live_context(closure, values)
    if call_ctx is None or call_ctx.specificity() == 0:
        # a context with no discriminating information (zero formals, or
        # nothing known about any argument) would match *every* call: the
        # promoted version would shadow the generic unconditionally and the
        # next phase change deopts it right back out — promotion is pure
        # churn without an entry check to stand behind
        return
    vt = st.versions
    if vt is not None:
        if vt.lookup_exact(call_ctx) is not None:
            return  # an entry version for this calling pattern already stands
        if vt.full and not cfg.dispatch_evict:
            vm.state.dispatch_refusals += 1
            return
    if cfg.deoptless_feedback_repair:
        feedback = repair_feedback(fs.code, reason, ctx)
    else:
        feedback = fs.code.feedback
    vm.promote_continuation(closure, st, call_ctx, feedback)
