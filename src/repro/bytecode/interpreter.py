"""The baseline bytecode interpreter — the profiling lower tier.

Executes full generic R semantics through :mod:`repro.runtime.coerce` and
records type/call/branch feedback at every relevant site.  Two properties
matter for the OSR machinery:

* :func:`run` can **enter at any pc with a pre-seeded operand stack**.  This
  is what deoptimization (OSR-out) uses to continue a function in the
  interpreter from the middle (paper Figure 1 / Listing 4).
* Backward branches are **counted**; hot loops trigger OSR-in through the
  VM (paper Listing 5), compiling a continuation from the current pc.
"""

from __future__ import annotations

from typing import Any, List, Optional

from ..runtime import coerce
from ..runtime.env import REnvironment
from ..runtime.rtypes import Kind, kind_lub
from ..runtime.values import (
    NULL,
    RBuiltin,
    RClosure,
    RError,
    RPromise,
    RVector,
    mk_lgl,
)
from . import opcodes as O
from .feedback import BinopFeedback, BranchFeedback, CallFeedback, ObservedType


def force(value: Any, vm) -> Any:
    """Force a promise (at most once); other values pass through."""
    if isinstance(value, RPromise):
        if not value.forced:
            value.value = run(value.code, value.env, vm)
            value.forced = True
            v = value.value
            if isinstance(v, RVector):
                v.named = 2
        return value.value
    return value


def bind_value(env: REnvironment, name: str, value: Any) -> None:
    """Store with NAMED bookkeeping (enables in-place subscript updates)."""
    if isinstance(value, RVector):
        if value.named == 0:
            value.named = 1
        elif env.bindings.get(name) is not value:
            value.named = 2
    env.set(name, value)


def match_arguments(closure: RClosure, args: List[Any], names, vm) -> REnvironment:
    """R-style argument matching: exact names first, then positional;
    missing formals fall back to defaults (evaluated lazily in the callee
    environment)."""
    env = REnvironment(parent=closure.env)
    formals = closure.formals
    formal_names = [f[0] for f in formals]
    bound = [False] * len(formals)
    used = [False] * len(args)

    if names is not None:
        for i, nm in enumerate(names):
            if nm is None:
                continue
            try:
                j = formal_names.index(nm)
            except ValueError:
                raise RError("unused argument (%s) in call to '%s'" % (nm, closure.name))
            if bound[j]:
                raise RError("formal argument '%s' matched by multiple arguments" % nm)
            _bind_arg(env, nm, args[i])
            bound[j] = True
            used[i] = True

    pos = 0
    for i, a in enumerate(args):
        if used[i]:
            continue
        while pos < len(formals) and bound[pos]:
            pos += 1
        if pos >= len(formals):
            raise RError("unused arguments in call to '%s'" % closure.name)
        _bind_arg(env, formal_names[pos], a)
        bound[pos] = True
        pos += 1

    for j, (nm, default) in enumerate(formals):
        if not bound[j]:
            if default is None:
                # R binds the "missing" marker; touching it errors at LD_VAR.
                continue
            env.set(nm, RPromise(default, env))
    return env


def _bind_arg(env: REnvironment, name: str, value: Any) -> None:
    if isinstance(value, RVector):
        value.named = 2  # argument values may be referenced by the caller too
    env.set(name, value)


def call_function(fn: Any, args: List[Any], names, vm) -> Any:
    """Common call path (also used by the native tier for generic calls)."""
    if isinstance(fn, RBuiltin):
        forced = [force(a, vm) for a in args]
        return fn.fn(forced, vm)
    if isinstance(fn, RClosure):
        return vm.call_closure(fn, args, names)
    raise RError("attempt to apply non-function")


def run(
    code,
    env: REnvironment,
    vm,
    stack: Optional[List[Any]] = None,
    pc: int = 0,
    closure=None,
) -> Any:
    """Interpret ``code`` in ``env`` starting at ``pc`` with operand ``stack``.

    The non-default ``pc``/``stack`` entry is how deoptimization resumes a
    function mid-flight after OSR-out.

    This is the production loop: feedback is recorded through the per-pc
    slot array preallocated by the compiler (a list index instead of a dict
    probe-and-insert), and ``state.interp_ops`` is maintained as straight-
    line *batches* — ops retire into a local accumulator that is settled at
    control-flow edges and flushed once on exit, so the totals the cost
    model reads are exactly those of the per-op reference loop.  Set
    ``RERPO_REF_EXEC=1`` (or ``Config.engine="ref"``) to run
    :func:`run_ref` instead for differential testing.
    """
    if vm.config.engine == "ref":
        return run_ref(code, env, vm, stack, pc, closure)
    if stack is None:
        stack = []
    instrs = code.code
    consts = code.consts
    names = code.names
    fbslots = code.feedback_slots
    if fbslots is None:
        code.seal_feedback()
        fbslots = code.feedback_slots
    state = vm.state
    n = 0       # ops retired into the batch accumulator
    base = pc   # first pc of the current straight-line batch

    try:
        while True:
            ins = instrs[pc]
            op = ins[0]

            if op == O.PUSH_CONST:
                stack.append(consts[ins[1]])

            elif op == O.LD_VAR:
                v = env.get(names[ins[1]])
                if isinstance(v, RPromise):
                    v = force(v, vm)
                fbslots[pc].record(v)
                stack.append(v)

            elif op == O.ST_VAR:
                bind_value(env, names[ins[1]], stack.pop())

            elif op == O.ST_VAR_SUPER:
                v = stack.pop()
                if isinstance(v, RVector):
                    v.named = 2
                env.set_super(names[ins[1]], v)

            elif op == O.LD_FUN:
                stack.append(env.get_function(names[ins[1]]))

            elif op == O.POP:
                stack.pop()

            elif op == O.DUP:
                stack.append(stack[-1])

            elif op == O.ROT3:
                c = stack.pop()
                b = stack.pop()
                a = stack.pop()
                stack.append(b)
                stack.append(c)
                stack.append(a)

            elif op == O.BINOP:
                rhs = stack.pop()
                lhs = stack.pop()
                fbslots[pc].record(lhs, rhs)
                stack.append(coerce.arith(ins[1], lhs, rhs))

            elif op == O.COMPARE:
                rhs = stack.pop()
                lhs = stack.pop()
                fbslots[pc].record(lhs, rhs)
                stack.append(coerce.compare(ins[1], lhs, rhs))

            elif op == O.LOGIC:
                rhs = stack.pop()
                lhs = stack.pop()
                stack.append(coerce.logic(ins[1], lhs, rhs))

            elif op == O.UNOP:
                stack.append(coerce.unary(ins[1], stack.pop()))

            elif op == O.COLON:
                rhs = stack.pop()
                lhs = stack.pop()
                fbslots[pc].record(lhs, rhs)
                stack.append(coerce.colon(lhs, rhs))

            elif op == O.INDEX2:
                idx = stack.pop()
                obj = stack.pop()
                fbslots[pc].record(obj, idx)
                stack.append(coerce.extract2(obj, idx))

            elif op == O.INDEX1:
                idx = stack.pop()
                obj = stack.pop()
                fbslots[pc].record(obj, idx)
                stack.append(coerce.extract1(obj, idx))

            elif op == O.SET_INDEX2:
                val = stack.pop()
                idx = stack.pop()
                obj = stack.pop()
                fbslots[pc].record(obj, val)
                stack.append(_set_index2(obj, idx, val))

            elif op == O.SET_INDEX1:
                val = stack.pop()
                idx = stack.pop()
                obj = stack.pop()
                fbslots[pc].record(obj, val)
                stack.append(coerce.assign1(obj, idx, val))

            elif op == O.SEQ_LENGTH:
                v = stack.pop()
                fbslots[pc].record(v)
                if isinstance(v, RVector):
                    ln = len(v.data)
                elif v is NULL:
                    ln = 0
                else:
                    ln = 1
                stack.append(RVector(Kind.INT, [ln]))

            elif op == O.PUSH_NULL:
                stack.append(NULL)

            elif op == O.BR:
                target = ins[1]
                n += pc - base + 1
                base = pc + 1
                if target <= pc:
                    code.backedge_count += 1
                    if (
                        state.osr_in_enabled
                        and not code.osr_disabled
                        and code.backedge_count >= state.osr_threshold
                    ):
                        done, result = vm.try_osr_in(code, env, target, closure)
                        if done:
                            del stack[:]
                            return result
                pc = target
                base = target
                continue

            elif op == O.BRFALSE or op == O.BRTRUE:
                cond = stack.pop()
                truth = cond.is_true() if isinstance(cond, RVector) else _truthy(cond)
                fbslots[pc].record(truth)
                if (op == O.BRFALSE) != truth:
                    target = ins[1]
                    n += pc - base + 1
                    pc = target
                    base = target
                    continue

            elif op == O.CALL:
                nargs = ins[1]
                args = stack[len(stack) - nargs :] if nargs else []
                del stack[len(stack) - nargs :]
                fn = stack.pop()
                call_names = consts[ins[2]] if ins[2] >= 0 else None
                fbslots[pc].record(fn, args)
                stack.append(call_function(fn, args, call_names, vm))

            elif op == O.MK_CLOSURE:
                body, formals, fname = consts[ins[1]]
                stack.append(RClosure(formals, body, env, fname))

            elif op == O.MK_PROMISE:
                stack.append(RPromise(consts[ins[1]], env))

            elif op == O.CHECK_FUN:
                mode = ins[1]
                if mode == "callable":
                    if not isinstance(stack[-1], (RClosure, RBuiltin)):
                        raise RError("attempt to apply non-function")
                else:  # as_lgl_scalar for && / ||
                    v = stack.pop()
                    stack.append(mk_lgl(v.is_true() if isinstance(v, RVector) else _truthy(v)))

            elif op == O.RETURN:
                return stack.pop()

            else:  # pragma: no cover - unreachable with a correct compiler
                raise RError("unknown opcode %d" % op)

            pc += 1
    finally:
        # settle the open batch: everything from base through the current pc
        # (inclusive) executed sequentially, including a raising op
        state.interp_ops += n + (pc - base + 1)


def run_ref(
    code,
    env: REnvironment,
    vm,
    stack: Optional[List[Any]] = None,
    pc: int = 0,
    closure=None,
) -> Any:
    """Reference interpreter loop: per-op telemetry bumps and dict-probed
    feedback.  Kept as the differential-testing baseline for :func:`run`
    (selected with ``RERPO_REF_EXEC=1``); results, recorded feedback and
    final telemetry totals must be identical between the two.
    """
    if stack is None:
        stack = []
    instrs = code.code
    consts = code.consts
    names = code.names
    feedback = code.feedback
    state = vm.state

    while True:
        ins = instrs[pc]
        op = ins[0]
        state.interp_ops += 1

        if op == O.PUSH_CONST:
            stack.append(consts[ins[1]])

        elif op == O.LD_VAR:
            v = env.get(names[ins[1]])
            if isinstance(v, RPromise):
                v = force(v, vm)
            fb = feedback.get(pc)
            if fb is None:
                fb = feedback[pc] = ObservedType()
            fb.record(v)
            stack.append(v)

        elif op == O.ST_VAR:
            bind_value(env, names[ins[1]], stack.pop())

        elif op == O.ST_VAR_SUPER:
            v = stack.pop()
            if isinstance(v, RVector):
                v.named = 2
            env.set_super(names[ins[1]], v)

        elif op == O.LD_FUN:
            stack.append(env.get_function(names[ins[1]]))

        elif op == O.POP:
            stack.pop()

        elif op == O.DUP:
            stack.append(stack[-1])

        elif op == O.ROT3:
            c = stack.pop()
            b = stack.pop()
            a = stack.pop()
            stack.append(b)
            stack.append(c)
            stack.append(a)

        elif op == O.BINOP:
            rhs = stack.pop()
            lhs = stack.pop()
            fb = feedback.get(pc)
            if fb is None:
                fb = feedback[pc] = BinopFeedback()
            fb.record(lhs, rhs)
            stack.append(coerce.arith(ins[1], lhs, rhs))

        elif op == O.COMPARE:
            rhs = stack.pop()
            lhs = stack.pop()
            fb = feedback.get(pc)
            if fb is None:
                fb = feedback[pc] = BinopFeedback()
            fb.record(lhs, rhs)
            stack.append(coerce.compare(ins[1], lhs, rhs))

        elif op == O.LOGIC:
            rhs = stack.pop()
            lhs = stack.pop()
            stack.append(coerce.logic(ins[1], lhs, rhs))

        elif op == O.UNOP:
            stack.append(coerce.unary(ins[1], stack.pop()))

        elif op == O.COLON:
            rhs = stack.pop()
            lhs = stack.pop()
            fb = feedback.get(pc)
            if fb is None:
                fb = feedback[pc] = BinopFeedback()
            fb.record(lhs, rhs)
            stack.append(coerce.colon(lhs, rhs))

        elif op == O.INDEX2:
            idx = stack.pop()
            obj = stack.pop()
            fb = feedback.get(pc)
            if fb is None:
                fb = feedback[pc] = BinopFeedback()
            fb.record(obj, idx)
            stack.append(coerce.extract2(obj, idx))

        elif op == O.INDEX1:
            idx = stack.pop()
            obj = stack.pop()
            fb = feedback.get(pc)
            if fb is None:
                fb = feedback[pc] = BinopFeedback()
            fb.record(obj, idx)
            stack.append(coerce.extract1(obj, idx))

        elif op == O.SET_INDEX2:
            val = stack.pop()
            idx = stack.pop()
            obj = stack.pop()
            fb = feedback.get(pc)
            if fb is None:
                fb = feedback[pc] = BinopFeedback()
            fb.record(obj, val)
            stack.append(_set_index2(obj, idx, val))

        elif op == O.SET_INDEX1:
            val = stack.pop()
            idx = stack.pop()
            obj = stack.pop()
            fb = feedback.get(pc)
            if fb is None:
                fb = feedback[pc] = BinopFeedback()
            fb.record(obj, val)
            stack.append(coerce.assign1(obj, idx, val))

        elif op == O.SEQ_LENGTH:
            v = stack.pop()
            fb = feedback.get(pc)
            if fb is None:
                fb = feedback[pc] = ObservedType()
            fb.record(v)
            if isinstance(v, RVector):
                n = len(v.data)
            elif v is NULL:
                n = 0
            else:
                n = 1
            stack.append(RVector(Kind.INT, [n]))

        elif op == O.PUSH_NULL:
            stack.append(NULL)

        elif op == O.BR:
            target = ins[1]
            if target <= pc:
                code.backedge_count += 1
                if (
                    state.osr_in_enabled
                    and not code.osr_disabled
                    and code.backedge_count >= state.osr_threshold
                ):
                    done, result = vm.try_osr_in(code, env, target, closure)
                    if done:
                        del stack[:]
                        return result
            pc = target
            continue

        elif op == O.BRFALSE or op == O.BRTRUE:
            cond = stack.pop()
            truth = cond.is_true() if isinstance(cond, RVector) else _truthy(cond)
            fb = feedback.get(pc)
            if fb is None:
                fb = feedback[pc] = BranchFeedback()
            fb.record(truth)
            if (op == O.BRFALSE) != truth:
                pc = ins[1]
                continue

        elif op == O.CALL:
            nargs = ins[1]
            args = stack[len(stack) - nargs :] if nargs else []
            del stack[len(stack) - nargs :]
            fn = stack.pop()
            call_names = consts[ins[2]] if ins[2] >= 0 else None
            fb = feedback.get(pc)
            if fb is None:
                fb = feedback[pc] = CallFeedback()
            fb.record(fn, args)
            stack.append(call_function(fn, args, call_names, vm))

        elif op == O.MK_CLOSURE:
            body, formals, fname = consts[ins[1]]
            stack.append(RClosure(formals, body, env, fname))

        elif op == O.MK_PROMISE:
            stack.append(RPromise(consts[ins[1]], env))

        elif op == O.CHECK_FUN:
            mode = ins[1]
            if mode == "callable":
                if not isinstance(stack[-1], (RClosure, RBuiltin)):
                    raise RError("attempt to apply non-function")
            else:  # as_lgl_scalar for && / ||
                v = stack.pop()
                stack.append(mk_lgl(v.is_true() if isinstance(v, RVector) else _truthy(v)))

        elif op == O.RETURN:
            return stack.pop()

        else:  # pragma: no cover - unreachable with a correct compiler
            raise RError("unknown opcode %d" % op)

        pc += 1


def _truthy(value: Any) -> bool:
    if isinstance(value, RVector):
        return value.is_true()
    raise RError("argument is not interpretable as logical")


def _set_index2(obj: Any, idx: Any, val: Any) -> Any:
    """``x[[i]] <- v`` with GNU-R-style in-place fast path when unshared."""
    if (
        isinstance(obj, RVector)
        and obj.named <= 1
        and isinstance(val, RVector)
        and len(val.data) == 1
        and obj.kind != Kind.LIST
        and kind_lub(val.kind, obj.kind) == obj.kind
    ):
        iv = idx
        if isinstance(iv, RVector) and len(iv.data) == 1 and iv.kind in (Kind.INT, Kind.DBL):
            i = iv.data[0]
            if i is not None:
                i = int(i)
                if 1 <= i <= len(obj.data):
                    x = val.data[0]
                    if obj.kind == Kind.DBL and isinstance(x, (int, bool)) and x is not None:
                        x = float(x)
                    elif obj.kind == Kind.CPLX and isinstance(x, (int, float, bool)) and x is not None:
                        x = complex(x)
                    elif obj.kind == Kind.INT and isinstance(x, bool):
                        x = int(x)
                    obj.data[i - 1] = x
                    return obj
    return coerce.assign2(obj, idx, val)
