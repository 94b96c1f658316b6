"""NativeCode → specialized Python source — the codegen execution engine.

The reference executor (native/executor.py) re-decodes every op through an
if/elif chain.  This module removes that overhead the way a real JIT does —
by *generating target code* per compilation unit.  ``_emit`` walks a
lowered :class:`~repro.native.lower.NativeCode` and prints straight-line
Python source: registers become plain locals (``r7``), each op becomes one
statement (or a few), guards become ``if``-raise of a :class:`DeoptSignal`
carrying the op's deopt-descriptor index, and bulk vector kernels become
direct ``run_kernel`` calls with a statically computed spill/reload set.
``compile()``/``exec`` then turns the text into a single specialized
function cached on the unit (``NativeCode.pyfunc``), shared by clones via
``cache_template`` back-propagation.

Codegen is total: every lowered unit translates.  Emission runs where the
unit was lowered (the VM's compile sites), and a unit the emitter cannot
translate raises :class:`~repro.ir.builder.CompilationFailure` there — it
is handled like any other failed compile (the code stays interpreted) and
counted in ``pycodegen_failures``.  There is no silent slower engine.

Equivalence contract: results, deopt frames and the engine-independent
telemetry — ``native_ops``, ``native_generic_ops``, ``guards_executed`` and
the ordered deopt event stream — must be bit-identical to the reference
if/elif loop.  Op counts are therefore *statically batched*: the emitter
tracks how many ops precede each basic-block exit and emits one literal
``_n += k`` instead of per-op increments, with every deopt site raising the
exact pending totals it would have observed in the reference loop.
Chaos-mode RNG draws are emitted after each passing guard in op order, so
the draw sequence is identical across both engines.

Deopt protocol: generated code raises ``DeoptSignal(did, regidx, vals,
dn, dg, du, observed, kind)`` — the deopt-descriptor index, the registers
the descriptor chain reads (statically enumerated at emission time) with
their current values, the pending counter deltas, and the observed
value/kind overrides.  The top-level ``except`` hands the signal to
``_fail``, which scatters the values into a register file, builds the
FrameState through the ordinary ``build_framestate`` descriptor walk, and
tail-calls ``vm.deopt`` exactly like the reference loop's ``deopt()``.

The generated source is pure text plus an opaque constant pool
(``NativeCode.pyconsts``, referenced as ``_K[i]``), which is what makes it
a persistable artifact: jit/persist.py stores both alongside the op stream
so a warm start only re-``compile()``s the text and never re-runs the
emitter.
"""

from __future__ import annotations

import math
from typing import Any, List, Optional, Tuple

from ..ir.builder import CompilationFailure
from ..osr.framestate import DeoptReason, DeoptReasonKind
from ..runtime import coerce
from ..runtime.env import REnvironment
from ..runtime.rtypes import Kind, RType
from ..runtime.values import (
    NULL,
    RBuiltin,
    RClosure,
    RError,
    RPromise,
    RVector,
    rtype_quick,
)
from . import ops as N
from .lower import branch_targets


class DeoptSignal(Exception):
    """A failing guard in generated code.

    ``regidx`` lists the registers the deopt descriptor chain reads and
    ``vals`` their values at the raise site; ``regidx is None`` means
    ``vals`` *is* the full register file (the kernel spill list, already
    materialized by ``KernelFrameTemplate``).  ``dn``/``dg``/``du`` are the
    pending native/generic/guard counter deltas to flush.
    """

    def __init__(self, did, regidx, vals, dn, dg, du, observed, kind):
        Exception.__init__(self)
        self.did = did
        self.regidx = regidx
        self.vals = vals
        self.dn = dn
        self.dg = dg
        self.du = du
        self.observed = observed
        self.kind = kind


class UnsupportedUnit(Exception):
    """Raised by the emitter on an op stream it cannot translate;
    :func:`ensure_source` reports it as a ``CompilationFailure``."""


def _fail(ncode, vm, closure_env, sig):
    """Handle a DeoptSignal: rebuild the frame chain and tail-call
    ``vm.deopt`` — the mirror of the reference loop's ``deopt()``."""
    if sig.regidx is None:
        regs = sig.vals
    else:
        regs = [None] * ncode.n_regs
        for r, v in zip(sig.regidx, sig.vals):
            regs[r] = v
    descr = ncode.deopts[sig.did]
    fs = build_framestate(ncode, regs, descr, closure_env)
    reason = DeoptReason(
        sig.kind or descr.reason_kind,
        descr.reason_pc,
        observed=sig.observed,
        expected=descr.expected,
    )
    state = vm.state
    state.native_ops += sig.dn
    state.native_generic_ops += sig.dg
    state.guards_executed += sig.du
    return vm.deopt(fs, reason, origin=ncode)


def _na_rtype(v):
    """The ``observed`` type a VLOAD NA-deopt reports (see execute_ref)."""
    return RType(v.kind, scalar=True, maybe_na=True)


def _descr_ref_regs(descr) -> set:
    """Every register a descriptor chain reads in ``build_framestate``."""
    regs = set()
    d = descr
    while d is not None:
        for _name, reg, _kind in d.env_slots:
            regs.add(reg)
        for reg, _kind in d.stack:
            regs.add(reg)
        if d.env_reg is not None:
            regs.add(d.env_reg)
        d = d.parent
    return regs


def _kernel_regs(ncode, kd) -> Tuple[list, list]:
    """(spill, reload) register sets for one bulk-kernel call site.

    ``run_kernel`` reads the induction/bound/sequence/accumulator registers,
    register-rooted invariant chains and the store value spec; on a chaos
    deopt the guard's frame template plus the spilled descriptor references
    must make the spill list a valid register file for ``build_framestate``.
    On ``ok`` only the advanced registers flow back.
    """
    spill = set()
    for r in (kd.idx_reg, kd.bound_reg, kd.seq_reg, kd.acc_reg):
        if r is not None:
            spill.add(r)
    spill.update(kd.seqv_regs)
    for _key, source, _gtype, _gident, _member_regs, _mode in kd.chains:
        if source[0] == "reg":
            spill.add(source[1])
    spec = kd.val_spec
    if spec is not None:
        if spec[0] == "reg":
            spill.add(spec[1])
        elif spec[0] == "map":
            spill.add(spec[3])
    for ev in kd.events:
        spill.update(_descr_ref_regs(ncode.deopts[ev.did]))
    reload = set()
    if kd.idx_reg is not None:
        reload.add(kd.idx_reg)
    reload.update(kd.seqv_regs)
    if kd.acc_reg is not None:
        reload.add(kd.acc_reg)
    return sorted(spill), sorted(reload)


_BINOP = {
    N.PADD: "+", N.PSUB: "-", N.PMUL: "*",
    N.PLT: "<", N.PLE: "<=", N.PGT: ">", N.PGE: ">=",
    N.PEQ: "==", N.PNE: "!=",
}

_GEN_CALL = {
    N.GEN_ARITH: "_arith", N.GEN_COMPARE: "_cmpf", N.GEN_LOGIC: "_logic",
}


def _emit(ncode) -> Tuple[str, list]:
    """Walk the canonical op stream and return ``(source, consts)``."""
    ops = ncode.ops
    nops = len(ops)
    consts: List[Any] = []
    cindex = {}

    def K(obj) -> str:
        i = cindex.get(id(obj))
        if i is None:
            i = len(consts)
            consts.append(obj)
            cindex[id(obj)] = i
        return "_K[%d]" % i

    def match_expr(var: str, t) -> str:
        """Specialize ``_type_matches(var, t)`` for a static RType."""
        if t.kind == Kind.CLO:
            return "isinstance(%s, RClosure)" % var
        if t.kind == Kind.BUILTIN:
            return "isinstance(%s, RBuiltin)" % var
        parts = [
            "isinstance(%s, RVector)" % var,
            "%s.kind == %s" % (var, K(t.kind)),
        ]
        if t.scalar:
            parts.append("len(%s.data) == 1" % var)
            if not t.maybe_na:
                parts.append("%s.data[0] is not None" % var)
        return " and ".join(parts)

    leaders = sorted(branch_targets(ops))
    leaderset = set(leaders)
    has_branches = any(op[0] in (N.JMP, N.BRT) for op in ops)
    single = len(leaders) == 1 and not has_branches
    uses_pics = any(op[0] == N.CALLG for op in ops)

    maybe_unset = set()  # registers whose entry value may be read
    seen_regs = set()    # every register the generated code names (the OSR
                         # hop binds all of them from its seeded image)

    def follow(idx: int, fold: int = 0) -> Tuple[int, int]:
        """Thread unconditional-jump chains; ``fold`` counts the JMP ops
        the reference loop would have executed along the way."""
        seen = set()
        while ops[idx][0] == N.JMP:
            if idx in seen:  # pragma: no cover - malformed stream
                break
            seen.add(idx)
            fold += 1
            idx = ops[idx][1]
        return idx, fold

    def emit_block(start: int) -> List[Tuple[int, str]]:
        L: List[Tuple[int, str]] = []
        written = set()
        pend = [0, 0, 0]  # pending native / generic / guard counts

        def out(ind: int, text: str) -> None:
            L.append((ind, text))

        def use(r: int) -> str:
            if r not in written:
                maybe_unset.add(r)
            seen_regs.add(r)
            return "r%d" % r

        def defn(r: int) -> str:
            written.add(r)
            seen_regs.add(r)
            return "r%d" % r

        def counters() -> Tuple[str, str, str]:
            return (
                "_n+%d" % pend[0],
                ("_g+%d" % pend[1]) if pend[1] else "_g",
                ("_u+%d" % pend[2]) if pend[2] else "_u",
            )

        def raise_stmt(did: int, observed: str = "None", kind: str = "None") -> str:
            refs = sorted(_descr_ref_regs(ncode.deopts[did]))
            for r in refs:
                use(r)
            idx = "(%s)" % "".join("%d," % r for r in refs)
            vals = "(%s)" % "".join("r%d," % r for r in refs)
            dn, dg, du = counters()
            return "raise _DS(%d, %s, %s, %s, %s, %s, %s, %s)" % (
                did, idx, vals, dn, dg, du, observed, kind
            )

        def flush_exit(extra: int = 0) -> List[str]:
            lines = []
            if pend[0] + extra:
                lines.append("_n += %d" % (pend[0] + extra))
            if pend[1]:
                lines.append("_g += %d" % pend[1])
            if pend[2]:
                lines.append("_u += %d" % pend[2])
            return lines

        def call_flush() -> None:
            # mirror of the reference loop's pre-call flush: the call op is
            # included, the generic/guard counters keep accumulating
            out(0, "state.native_ops += _n + %d" % pend[0])
            out(0, "_n = 0")
            pend[0] = 0

        i = start
        while True:
            ins = ops[i]
            op = ins[0]
            if op not in N.KERNEL_OPS:
                pend[0] += 1

            if op == N.JMP:
                tgt, fold = follow(ins[1])
                for ln in flush_exit(fold):
                    out(0, ln)
                out(0, "_b = %d" % tgt)
                out(0, "continue")
                return L
            if op == N.BRT:
                cond = use(ins[1])
                tt, tf = follow(ins[2])
                ft, ff = follow(ins[3])
                if tf == ff:
                    for ln in flush_exit(tf):
                        out(0, ln)
                    out(0, "_b = %d if %s else %d" % (tt, cond, ft))
                else:
                    if pend[1]:
                        out(0, "_g += %d" % pend[1])
                    if pend[2]:
                        out(0, "_u += %d" % pend[2])
                    out(0, "if %s:" % cond)
                    out(1, "_n += %d" % (pend[0] + tf))
                    out(1, "_b = %d" % tt)
                    out(0, "else:")
                    out(1, "_n += %d" % (pend[0] + ff))
                    out(1, "_b = %d" % ft)
                out(0, "continue")
                return L
            if op == N.RET:
                out(0, "state.native_ops += _n + %d" % pend[0])
                gexpr = ("_g + %d" % pend[1]) if pend[1] else "_g"
                uexpr = ("_u + %d" % pend[2]) if pend[2] else "_u"
                out(0, "state.native_generic_ops += %s" % gexpr)
                out(0, "state.guards_executed += %s" % uexpr)
                out(0, "return %s" % use(ins[1]))
                return L

            if op in _BINOP:
                a, b = use(ins[2]), use(ins[3])
                out(0, "%s = %s %s %s" % (defn(ins[1]), a, _BINOP[op], b))
            elif op == N.MOVE:
                a = use(ins[2])
                out(0, "%s = %s" % (defn(ins[1]), a))
            elif op == N.VLOAD:
                out(0, "_v = %s" % use(ins[2]))
                out(0, "_i = %s" % use(ins[3]))
                out(0, "_d = _v.data")
                out(0, "if _i < 1 or _i > len(_d):")
                out(1, 'raise RError("subscript out of bounds")')
                out(0, "_w = _d[int(_i) - 1]")
                out(0, "if _w is None:")
                out(1, raise_stmt(ins[4], observed="_naty(_v)"))
                out(0, "%s = _w" % defn(ins[1]))
            elif op == N.PDIV:
                out(0, "_v = %s" % use(ins[2]))
                out(0, "_w = %s" % use(ins[3]))
                d = defn(ins[1])
                out(0, "if _w == 0:")
                out(1, "if isinstance(_v, complex) or isinstance(_w, complex):")
                out(2, 'raise RError("complex division by zero")')
                out(1, '%s = float("nan") if _v == 0 else math.copysign(math.inf, _v)' % d)
                out(0, "else:")
                out(1, "%s = _v / _w" % d)
            elif op == N.GTYPE:
                pend[2] += 1
                out(0, "_v = %s" % use(ins[1]))
                out(0, "if not (%s):" % match_expr("_v", ins[2]))
                out(1, raise_stmt(ins[3], observed="_rq(_v)"))
                out(0, "if _ch is not None and _ch.random() < _rate:")
                out(1, raise_stmt(ins[3], observed="_rq(_v)", kind="_CHAOS"))
            elif op == N.VLEN:
                a = use(ins[2])
                out(0, "%s = len(%s.data)" % (defn(ins[1]), a))
            elif op == N.VSTORE:
                out(0, "_v = %s" % use(ins[2]))
                out(0, "_i = int(%s)" % use(ins[3]))
                out(0, "_w = %s" % use(ins[4]))
                d = defn(ins[1])
                kind = ins[5]
                out(0, "if isinstance(_v, RVector) and _v.named <= 1 and "
                       "_v.kind == %s and 1 <= _i <= len(_v.data):" % K(kind))
                out(1, "_v.data[_i - 1] = _w")
                out(1, "%s = _v" % d)
                if kind in (Kind.LGL, Kind.INT):
                    out(0, "elif isinstance(_v, RVector) and _v.named <= 1 and "
                           "1 <= _i <= len(_v.data) and _v.kind == %s:" % K(Kind.DBL))
                    out(1, "_v.data[_i - 1] = float(_w)")
                    out(1, "%s = _v" % d)
                out(0, "else:")
                out(1, "%s = _assign2(_v, RVector(%s, [_i]), RVector(%s, [_w]))"
                       % (d, K(Kind.INT), K(kind)))
            elif op == N.BOX:
                out(0, "_v = %s" % use(ins[2]))
                kind = ins[3]
                if kind == Kind.DBL:
                    out(0, "if type(_v) is int:")
                    out(1, "_v = float(_v)")
                elif kind == Kind.INT:
                    out(0, "if type(_v) is bool:")
                    out(1, "_v = int(_v)")
                elif kind == Kind.CPLX:
                    out(0, "if not isinstance(_v, complex) and _v is not None:")
                    out(1, "_v = complex(_v)")
                out(0, "%s = RVector(%s, [_v])" % (defn(ins[1]), K(kind)))
            elif op == N.UNBOX:
                a = use(ins[2])
                out(0, "%s = %s.data[0]" % (defn(ins[1]), a))
            elif op == N.PPOW:
                out(0, "_v = %s" % use(ins[2]))
                out(0, "_w = %s" % use(ins[3]))
                out(0, "try:")
                out(1, "_x = _v ** _w")
                out(0, "except (OverflowError, ZeroDivisionError):")
                out(1, "_x = math.inf")
                out(0, "if isinstance(_x, complex) and not "
                       "(isinstance(_v, complex) or isinstance(_w, complex)):")
                out(1, '_x = float("nan")')
                out(0, "elif isinstance(_x, int):")
                out(1, "_x = float(_x)")
                out(0, "%s = _x" % defn(ins[1]))
            elif op == N.PNEG:
                a = use(ins[2])
                out(0, "%s = -%s" % (defn(ins[1]), a))
            elif op == N.PNOT:
                a = use(ins[2])
                out(0, "%s = not %s" % (defn(ins[1]), a))
            elif op in (N.PMODI, N.PIDIVI):
                out(0, "_w = %s" % use(ins[3]))
                out(0, "if _w == 0:")
                out(1, raise_stmt(ins[4]))
                a = use(ins[2])
                out(0, "%s = %s %s _w"
                       % (defn(ins[1]), a, "%" if op == N.PMODI else "//"))
            elif op == N.PMODF:
                out(0, "_w = %s" % use(ins[3]))
                out(0, "_v = %s" % use(ins[2]))
                out(0, '%s = float("nan") if _w == 0 else '
                       "_v - math.floor(_v / _w) * _w" % defn(ins[1]))
            elif op == N.PIDIVF:
                out(0, "_w = %s" % use(ins[3]))
                out(0, "_v = %s" % use(ins[2]))
                d = defn(ins[1])
                out(0, "if _w == 0:")
                out(1, '%s = math.inf if _v > 0 else (-math.inf if _v < 0 else float("nan"))' % d)
                out(0, "else:")
                out(1, "%s = float(math.floor(_v / _w))" % d)
            elif op == N.GIDENT:
                pend[2] += 1
                out(0, "_v = %s" % use(ins[1]))
                out(0, "if _v is not %s:" % K(ins[2]))
                out(1, raise_stmt(ins[3], observed="_v"))
                out(0, "if _ch is not None and _ch.random() < _rate:")
                out(1, raise_stmt(ins[3], observed="_v", kind="_CHAOS"))
            elif op == N.ISTYPE:
                a = use(ins[2])
                out(0, "%s = _tm(%s, %s)" % (defn(ins[1]), a, K(ins[3])))
            elif op == N.ISIDENT:
                a = use(ins[2])
                out(0, "%s = %s is %s" % (defn(ins[1]), a, K(ins[3])))
            elif op == N.ASSUME:
                pend[2] += 1
                out(0, "if not %s:" % use(ins[1]))
                out(1, raise_stmt(ins[2]))
                out(0, "if _ch is not None and _ch.random() < _rate:")
                out(1, raise_stmt(ins[2], kind="_CHAOS"))
            elif op == N.FORCE:
                out(0, "_v = %s" % use(ins[2]))
                out(0, "%s = _force(_v, vm) if isinstance(_v, RPromise) else _v"
                       % defn(ins[1]))
            elif op == N.AS_LGL:
                out(0, "_v = %s" % use(ins[2]))
                out(0, "%s = _v.is_true() if isinstance(_v, RVector) else _ab(_v)"
                       % defn(ins[1]))
            elif op in _GEN_CALL:
                pend[1] += 1
                a, b = use(ins[3]), use(ins[4])
                out(0, "%s = %s(%r, %s, %s)"
                       % (defn(ins[1]), _GEN_CALL[op], ins[2], a, b))
            elif op == N.GEN_UNARY:
                pend[1] += 1
                a = use(ins[3])
                out(0, "%s = _unary(%r, %s)" % (defn(ins[1]), ins[2], a))
            elif op == N.GEN_COLON:
                pend[1] += 1
                a, b = use(ins[2]), use(ins[3])
                out(0, "%s = _colon(%s, %s)" % (defn(ins[1]), a, b))
            elif op == N.GEN_EX2:
                pend[1] += 1
                a, b = use(ins[2]), use(ins[3])
                out(0, "%s = _ex2(%s, %s)" % (defn(ins[1]), a, b))
            elif op == N.GEN_EX1:
                pend[1] += 1
                a, b = use(ins[2]), use(ins[3])
                out(0, "%s = _ex1(%s, %s)" % (defn(ins[1]), a, b))
            elif op == N.GEN_SET2:
                pend[1] += 1
                a, b, c = use(ins[2]), use(ins[3]), use(ins[4])
                out(0, "%s = _set2(%s, %s, %s)" % (defn(ins[1]), a, b, c))
            elif op == N.GEN_SET1:
                pend[1] += 1
                a, b, c = use(ins[2]), use(ins[3]), use(ins[4])
                out(0, "%s = _set1(%s, %s, %s)" % (defn(ins[1]), a, b, c))
            elif op == N.GEN_SEQLEN:
                pend[1] += 1
                out(0, "_v = %s" % use(ins[2]))
                out(0, "if isinstance(_v, RVector):")
                out(1, "_i = len(_v.data)")
                out(0, "elif _v is NULL:")
                out(1, "_i = 0")
                out(0, "else:")
                out(1, "_i = 1")
                out(0, "%s = RVector(%s, [_i])" % (defn(ins[1]), K(Kind.INT)))
            elif op == N.CHECKFUN:
                out(0, "if not isinstance(%s, (RClosure, RBuiltin)):" % use(ins[1]))
                out(1, 'raise RError("attempt to apply non-function")')
            elif op == N.SHARE:
                out(0, "_v = %s" % use(ins[1]))
                out(0, "if isinstance(_v, RVector):")
                out(1, "_v.named = 2")
            elif op == N.LDVAR_ENV:
                out(0, "_v = %s.get(%r)" % (use(ins[2]), ins[3]))
                out(0, "if isinstance(_v, RPromise):")
                out(1, "_v = _force(_v, vm)")
                out(0, "%s = _v" % defn(ins[1]))
            elif op == N.LDVAR_FREE:
                out(0, "_v = closure_env.get(%r)" % (ins[2],))
                out(0, "if isinstance(_v, RPromise):")
                out(1, "_v = _force(_v, vm)")
                out(0, "%s = _v" % defn(ins[1]))
            elif op == N.STVAR_ENV:
                out(0, "_e = %s" % use(ins[1]))
                out(0, "_v = %s" % use(ins[3]))
                out(0, "if isinstance(_v, RVector):")
                out(1, "if _v.named == 0:")
                out(2, "_v.named = 1")
                out(1, "elif _e.bindings.get(%r) is not _v:" % (ins[2],))
                out(2, "_v.named = 2")
                out(0, "_e.set(%r, _v)" % (ins[2],))
            elif op == N.STSUPER:
                out(0, "_v = %s" % use(ins[3]))
                out(0, "if isinstance(_v, RVector):")
                out(1, "_v.named = 2")
                if ins[1] is not None:
                    out(0, "%s.set_super(%r, _v)" % (use(ins[1]), ins[2]))
                else:
                    out(0, "_sas(closure_env, %r, _v)" % (ins[2],))
            elif op == N.LDFUN:
                env = use(ins[2]) if ins[2] is not None else "closure_env"
                out(0, "%s = %s.get_function(%r)" % (defn(ins[1]), env, ins[3]))
            elif op == N.MKCLOSURE:
                code, formals, fname = ins[3]
                # env operand None: harmless capture (escape analysis)
                e = use(ins[2]) if ins[2] is not None else "closure_env"
                out(0, "%s = RClosure(%s, %s, %s, %r)"
                       % (defn(ins[1]), K(formals), K(code), e, fname))
            elif op == N.MKPROMISE:
                e = use(ins[2]) if ins[2] is not None else "closure_env"
                out(0, "%s = RPromise(%s, %s)" % (defn(ins[1]), K(ins[3]), e))
            elif op == N.MKENV:
                vals = "(%s)" % "".join(use(r) + ", " for r in ins[3])
                out(0, "%s = _mkenv(%s, %s, closure_env)"
                       % (defn(ins[1]), K(ins[2]), vals))
            elif op == N.CALLB:
                call_flush()
                fargs = ", ".join("_force(%s, vm)" % use(r) for r in ins[3])
                out(0, "%s = %s.fn([%s], vm)" % (defn(ins[1]), K(ins[2]), fargs))
            elif op == N.CALLS:
                call_flush()
                fargs = ", ".join(use(r) for r in ins[3])
                out(0, "%s = vm.call_closure(%s, [%s], %r)"
                       % (defn(ins[1]), K(ins[2]), fargs, ins[4]))
            elif op == N.CALLG:
                call_flush()
                out(0, "_e = _pics.get(%d)" % i)
                out(0, "if _e is None:")
                out(1, "_e = _pics[%d] = []" % i)
                fn = use(ins[2])
                fargs = ", ".join(use(r) for r in ins[3])
                out(0, "%s = _pic(_e, %s, [%s], %r, vm)"
                       % (defn(ins[1]), fn, fargs, ins[4]))
            elif op in N.KERNEL_OPS:
                kd = ncode.kernels[ins[1]]
                spill, reload = _kernel_regs(ncode, kd)
                out(0, "_rs = [None] * %d" % ncode.n_regs)
                for r in spill:
                    out(0, "_rs[%d] = %s" % (r, use(r)))
                out(0, "_r = _kern(ncode.kernels[%d], _rs, vm, closure_env)" % ins[1])
                out(0, "_s = _r[0]")
                out(0, 'if _s == "ok":')
                out(1, "_n += _r[1]")
                out(1, "_u += _r[2]")
                out(1, "_g += _r[3]")
                out(1, "state.kernel_elements += _r[4]")
                for r in reload:
                    out(1, "%s = _rs[%d]" % (defn(r), r))
                out(0, 'elif _s == "deopt":')
                out(1, "state.kernel_elements += _r[7]")
                dn, dg, du = counters()
                out(1, "raise _DS(_r[1], None, _rs, %s + _r[4], %s + _r[6], "
                       "%s + _r[5], _r[2], _r[3])" % (dn, dg, du))
            else:
                raise UnsupportedUnit("opcode %d" % op)

            i += 1
            if i >= nops:  # pragma: no cover - lowerer always terminates blocks
                out(0, 'raise RError("fell off native code")')
                return L
            if i in leaderset:
                tgt, fold = follow(i)
                for ln in flush_exit(fold):
                    out(0, ln)
                out(0, "_b = %d" % tgt)
                out(0, "continue")
                return L

    blocks = {leader: emit_block(leader) for leader in leaders}

    # hot-first chain order: blocks that are backedge targets (after jump
    # threading) come first so loop headers sit at the top of the dispatch
    back: List[int] = []
    for i, ins in enumerate(ops):
        tgts = ()
        if ins[0] == N.JMP:
            tgts = (ins[1],)
        elif ins[0] == N.BRT:
            tgts = (ins[2], ins[3])
        for t0 in tgts:
            t, _fold = follow(t0)
            if t <= i and t not in back:
                back.append(t)
    ordered = back + [l for l in leaders if l not in back]

    lines: List[str] = []

    def render(ind: int, text: str) -> None:
        lines.append("    " * ind + text)

    params = list(ncode.param_regs)
    const_regs = {i for i, v0 in enumerate(ncode.reg_init) if v0 is not None}

    render(0, "def _unit(ncode, vm, args, closure_env, _entry=None, _regs=None):")
    render(1, "if _regs is None and len(args) != %d:" % len(params))
    render(2, 'raise RError("internal: native unit %%s called with %%d '
              'arguments, expects %d" %% (ncode.name, len(args)))' % len(params))
    render(1, "state = vm.state")
    render(1, "_ch = vm.chaos_rng if vm.config.chaos_rate > 0.0 else None")
    render(1, "_rate = vm.config.chaos_rate")
    if uses_pics:
        render(1, "_pics = ncode.pics")
    pset = set(params)
    render(1, "if _regs is None:")
    bound = 0
    for r in sorted((const_regs & maybe_unset) - pset):
        render(2, "r%d = %s" % (r, K(ncode.reg_init[r])))
        bound += 1
    for r in sorted(maybe_unset - const_regs - pset):
        render(2, "r%d = None" % r)
        bound += 1
    pu = ncode.param_unbox
    for pos, r in enumerate(params):
        if pu is not None and pu[pos] is not None:
            render(2, "r%d = args[%d].data[0]" % (r, pos))
        else:
            render(2, "r%d = args[%d]" % (r, pos))
        bound += 1
    if not bound:
        render(2, "pass")
    if seen_regs:
        # dispatched-OSR hop: a pre-seeded full register image replaces
        # parameter binding; execution starts at the _entry leader
        render(1, "else:")
        for r in sorted(seen_regs):
            render(2, "r%d = _regs[%d]" % (r, r))
    render(1, "_n = 0")
    render(1, "_g = 0")
    render(1, "_u = 0")
    render(1, "try:")
    if single:
        for ind, text in blocks[0]:
            render(2 + ind, text)
    else:
        render(2, "_b = 0 if _entry is None else _entry")
        render(2, "while True:")
        first = True
        for leader in ordered:
            render(3, "%s _b == %d:" % ("if" if first else "elif", leader))
            first = False
            for ind, text in blocks[leader]:
                render(4 + ind, text)
    render(1, "except _DS as _sig:")
    render(2, "return _fail(ncode, vm, closure_env, _sig)")
    return "\n".join(lines) + "\n", consts


def _mk_partial_env(names, values, closure_env):
    """MKENV: the partial environment of a mixed (escape-analyzed) unit,
    pre-bound with the env-demoted formals (NAMED parity with binding)."""
    menv = REnvironment(parent=closure_env)
    for name, val in zip(names, values):
        if isinstance(val, RVector):
            val.named = 2
        menv.set(name, val)
    return menv


_ENV_CACHE: Optional[dict] = None


def _shared_env() -> dict:
    """The globals every generated function runs under (helpers only; the
    per-unit constant pool ``_K`` is added at bind time)."""
    global _ENV_CACHE
    env = _ENV_CACHE
    if env is None:
        env = _ENV_CACHE = {
            "__builtins__": __builtins__,
            "_DS": DeoptSignal,
            "_fail": _fail,
            "_tm": _type_matches,
            "_rq": rtype_quick,
            "_naty": _na_rtype,
            "_force": force_value,
            "_ab": _as_bool,
            "_sas": _super_assign_from,
            "_mkenv": _mk_partial_env,
            "_pic": pic_call,
            "_kern": run_kernel,
            "_arith": coerce.arith,
            "_cmpf": coerce.compare,
            "_logic": coerce.logic,
            "_unary": coerce.unary,
            "_colon": coerce.colon,
            "_ex2": coerce.extract2,
            "_ex1": coerce.extract1,
            "_set2": _generic_set2,
            "_set1": coerce.assign1,
            "_assign2": coerce.assign2,
            "RVector": RVector,
            "RClosure": RClosure,
            "RBuiltin": RBuiltin,
            "RPromise": RPromise,
            "RError": RError,
            "NULL": NULL,
            "math": math,
            "_CHAOS": DeoptReasonKind.CHAOS,
        }
    return env


def ensure_source(ncode, state=None) -> str:
    """Emit (once) and cache the unit's generated source + constant pool.

    Raises :class:`~repro.ir.builder.CompilationFailure` (counted in
    ``state.pycodegen_failures``) when the emitter cannot translate the unit.
    """
    src = ncode.pysrc
    if src is not None:
        return src
    try:
        src, consts = _emit(ncode)
    except Exception as e:
        if state is not None:
            state.pycodegen_failures += 1
        raise CompilationFailure("codegen failed for %s: %s: %s"
                                 % (ncode.name, type(e).__name__, e)) from e
    ncode.pysrc = src
    ncode.pyconsts = consts
    if state is not None:
        state.pycodegen_units += 1
    tmpl = ncode.cache_template
    if tmpl is not None and tmpl.pysrc is None:
        # back-propagate: later clones of the template start warm
        tmpl.pysrc = src
        tmpl.pyconsts = consts
    return src


def bind(ncode, vm):
    """compile()/exec the unit's generated source into its ``pyfunc``.

    Emits the source first if the unit has none yet; emission and
    ``compile()`` errors propagate to the caller.
    """
    src = ncode.pysrc
    tmpl = ncode.cache_template
    if src is None and tmpl is not None and tmpl.pysrc is not None:
        src = ncode.pysrc = tmpl.pysrc
        ncode.pyconsts = tmpl.pyconsts
        if tmpl.pyfunc is not None:
            ncode.pyfunc = tmpl.pyfunc
            return tmpl.pyfunc
    if src is None:
        src = ensure_source(ncode, vm.state)
    g = dict(_shared_env())
    g["_K"] = tuple(ncode.pyconsts or ())
    exec(compile(src, "<pycodegen:%s>" % ncode.name, "exec"), g)
    fn = ncode.pyfunc = g["_unit"]
    if tmpl is not None and tmpl.pyfunc is None:
        tmpl.pysrc = ncode.pysrc
        tmpl.pyconsts = ncode.pyconsts
        tmpl.pyfunc = fn
    return fn


def execute_codegen(ncode, args, vm, closure_env=None, entry=None, regs=None):
    """Run a unit through its generated function (binding it on first use)."""
    fn = ncode.pyfunc
    if fn is None:
        fn = bind(ncode, vm)
    if closure_env is None and ncode.closure is not None:
        closure_env = ncode.closure.env
    return fn(ncode, vm, args, closure_env, entry, regs)


# imported last: these helpers live in executor.py / kernels.py, which
# import us at their bottoms
from .executor import (  # noqa: E402
    _as_bool,
    _generic_set2,
    _super_assign_from,
    _type_matches,
    build_framestate,
    force_value,
    pic_call,
)
from .kernels import run_kernel  # noqa: E402
