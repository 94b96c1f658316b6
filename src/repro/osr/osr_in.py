"""OSR-in: tiering up out of a hot interpreter loop (paper Listing 5).

When the interpreter counts enough backedges it calls :func:`try_osr_in`.
We compile a *continuation*: the same bytecode translated from the current
pc (the loop head) to the end of the function, with the interpreter's
variables passed in as arguments.  By construction of our loop lowering the
operand stack is empty at backedge targets, so only the environment needs
to be transferred.

Per the paper, the continuation is used once and not kept installed: on the
next call of the function, the whole function is compiled from the beginning
("for the price of compiling these functions twice").  The code cache keeps
the *lowered unit* though, keyed on (code hash, loop pc, live variable
types, feedback signature): re-entering the same loop shape — another
closure of the same source, or a restarted VM — skips the second compile.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from ..ir.builder import CompilationFailure, GraphBuilder
from ..native.executor import execute
from ..native.lower import lower
from ..opt.pipeline import optimize
from ..runtime.values import rtype_quick


def try_osr_in(vm, code, env, pc: int, closure=None) -> Tuple[bool, Any]:
    """Attempt OSR-in at a loop head. Returns (entered, result)."""
    code.backedge_count = 0  # re-arm the counter whatever happens

    # Dispatched OSR first: when the closure already has installed versions
    # carrying an OSR entry at this header, hop straight in — O(lookup), no
    # compile.  The hop distills the live frame's call context and consults
    # seen_contexts before selecting, so a version whose entry assumptions
    # the running frame has violated is never picked.
    if vm.config.osr_hop and closure is not None and closure.jit is not None:
        from . import osr_hop

        result = osr_hop.try_hop_in(vm, code, env, pc, closure, closure.jit)
        if result is not osr_hop.NO_HOP:
            return (True, result)

    var_types = {name: rtype_quick(v) for name, v in env.bindings.items()}

    key = None
    ncode = None
    if vm.code_cache is not None:
        from ..jit import codecache

        key = codecache.osr_key(code, closure, pc, var_types, vm.config)
        template = vm.code_cache.lookup(key, vm, code)
        if template is not None:
            ncode = template.clone_for_install()
            if vm.code_cache.last_hit_shared:
                vm._account_shared_rebind(ncode)
            vm.state.emit("codecache_hit", code.name, unit="osr", pc=pc,
                          size=ncode.size)

    if ncode is None:
        try:
            builder = GraphBuilder(
                vm, code, closure,
                entry_pc=pc,
                entry_var_types=var_types,
                entry_stack_types=[],
                is_continuation=True,
            )
            if closure is None:
                # top-level code runs against a shared (global) environment whose
                # bindings are observable by callees: never elide it
                builder.env_mode = True
                builder.graph.env_elided = False
            graph = builder.build()
            optimize(graph, vm.config, vm=vm)
            ncode = vm.emit_codegen(lower(graph))
        except CompilationFailure as e:
            code.osr_disabled = True
            vm.state.compile_failures += 1
            vm.state.emit("osr_in_failed", code.name, error=str(e))
            return (False, None)
        if key is not None:
            vm.code_cache.insert(key, ncode, vm, code)
        vm.state.compiles += 1
        vm.state.compiled_instrs += ncode.size
        vm.state.lowered_instrs += ncode.size

    ncode.closure = closure
    vm.state.osr_ins += 1
    vm.state.code_size += ncode.size
    vm.state.emit("osr_in", code.name, pc=pc, size=ncode.size)

    if ncode.env_elided:
        args = [env.bindings.get(n) for n in ncode.cont_var_names]
    else:
        args = [env]
    closure_env = closure.env if closure is not None else env.parent
    result = execute(ncode, args, vm, closure_env=closure_env)
    # single-use continuation: release the code (paper section 4.2)
    vm.state.code_size -= ncode.size
    return (True, result)
