"""Differential proof that the two execution engines are equivalent.

The reference if/elif loops (``Config.engine="ref"``, ``RERPO_REF_EXEC=1``)
are the semantic spec; the per-unit Python-codegen engine (the default) must
be observationally identical to them: same results, same deopt event
stream, and the exact same op/guard telemetry (the cost model's inputs).
Every workload in the benchmark registry is run on both engines across tier
configurations, including chaos mode with fixed seeds, and the full
dispatch signatures are compared, as is the type, branch and call feedback
each global closure recorded; the codegen runs must also be free of
emitter failures (codegen is total).
"""

import threading

import pytest

from conftest import make_vm
from repro import from_r
from repro.bench.programs import REGISTRY
from repro.bytecode.feedback import (
    BinopFeedback,
    BranchFeedback,
    CallFeedback,
    ObservedType,
)
from repro.runtime.values import RClosure

#: engine-equivalence must hold in every execution mode, including chaos
#: (which additionally proves the engines consume the chaos RNG in the same
#: sequence: any extra or missing guard check would desynchronize it)
ENGINE_CONFIGS = {
    "interp": dict(enable_jit=False),
    "jit": dict(compile_threshold=1, osr_threshold=50),
    "deoptless": dict(compile_threshold=1, osr_threshold=50, enable_deoptless=True),
    "chaos": dict(
        compile_threshold=1,
        osr_threshold=50,
        enable_deoptless=True,
        chaos_rate=0.05,
        chaos_seed=1234,
    ),
}

#: how the two engines are scheduled.  ``codegen``: one after the other on
#: the test thread.  ``threaded``: at the same time, the codegen VM on a
#: worker thread beside the reference VM on the test thread, so the two
#: engines interleave in one process; state they wrongly share shows up as
#: a divergence.
LEGS = ("codegen", "threaded")


def _observed(o):
    if o.count == 0:
        return None
    return (sorted(k.name for k in o.kinds), o.all_scalar, o.saw_na, o.stale, o.count)


def _slot_summary(fb):
    """What one feedback slot recorded, or None if it never executed (as in
    ``codecache._slot_sig``, a preallocated slot that never recorded is the
    same as an absent one)."""
    if isinstance(fb, ObservedType):
        return _observed(fb)
    if isinstance(fb, BinopFeedback):
        lhs, rhs = _observed(fb.lhs), _observed(fb.rhs)
        if lhs is None and rhs is None and not fb.stale:
            return None
        return (lhs, rhs, fb.stale)
    if isinstance(fb, BranchFeedback):
        if not fb.taken and not fb.not_taken and not fb.stale:
            return None
        return (fb.taken, fb.not_taken, fb.stale)
    if isinstance(fb, CallFeedback):
        if fb.count == 0 and not fb.targets and not fb.megamorphic:
            return None
        profiles = (
            [tuple(k.name for k in p) for p in fb.arg_profiles]
            if fb.arg_profiles is not None else None
        )
        return ([t.name for t in fb.targets], fb.megamorphic, fb.stale,
                fb.count, profiles)
    return None


def feedback_summary(vm):
    """Global closure name -> {pc: summary} of every executed feedback slot."""
    out = {}
    for gname, v in vm.global_env.items():
        if isinstance(v, RClosure) and v.code.feedback_slots is not None:
            slots = {}
            for pc, fb in enumerate(v.code.feedback_slots):
                summary = _slot_summary(fb)
                if summary is not None:
                    slots[pc] = summary
            out[gname] = slots
    return out


def run_workload(name, cfg, engine, repeats=2):
    w = REGISTRY.get(name)
    vm = make_vm(engine=engine, **cfg)
    vm.eval(w.source)
    vm.eval(w.setup_code(w.n_test))
    results = [from_r(vm.eval(w.call_code(w.n_test))) for _ in range(repeats)]
    if engine == "codegen":
        assert vm.state.pycodegen_failures == 0, "%s: emitter failed" % name
    return results, vm.state.dispatch_signature(), feedback_summary(vm)


def run_side_by_side(name, cfg):
    out = {}

    def work():
        try:
            out["codegen"] = run_workload(name, cfg, "codegen")
        except Exception as e:  # re-raised on the test thread
            out["error"] = e

    t = threading.Thread(target=work, daemon=True)
    t.start()
    ref = run_workload(name, cfg, "ref")
    t.join(timeout=600)
    assert not t.is_alive(), "%s: worker thread did not finish" % name
    if "error" in out:
        raise out["error"]
    return out["codegen"], ref


@pytest.mark.parametrize("leg", LEGS)
@pytest.mark.parametrize("mode", sorted(ENGINE_CONFIGS))
@pytest.mark.parametrize("name", REGISTRY.names())
def test_engine_matches_reference(name, mode, leg):
    cfg = ENGINE_CONFIGS[mode]
    if leg == "threaded":
        (c_results, c_sig, c_fb), (r_results, r_sig, r_fb) = run_side_by_side(name, cfg)
    else:
        c_results, c_sig, c_fb = run_workload(name, cfg, "codegen")
        r_results, r_sig, r_fb = run_workload(name, cfg, "ref")
    assert c_results == r_results, "%s[%s]: results diverged" % (name, mode)
    for key in r_sig:
        assert c_sig[key] == r_sig[key], (
            "%s[%s]: %s diverged: codegen=%r reference=%r"
            % (name, mode, key, c_sig[key], r_sig[key])
        )
    assert sorted(c_fb) == sorted(r_fb), "%s[%s]: global closures differ" % (name, mode)
    for fn in r_fb:
        for pc in sorted(set(c_fb[fn]) | set(r_fb[fn])):
            assert c_fb[fn].get(pc) == r_fb[fn].get(pc), (
                "%s[%s]: feedback of %s at pc %d diverged: codegen=%r reference=%r"
                % (name, mode, fn, pc, c_fb[fn].get(pc), r_fb[fn].get(pc))
            )


def test_ref_exec_env_var_selects_reference(monkeypatch):
    from repro.jit.config import Config

    monkeypatch.setenv("RERPO_REF_EXEC", "1")
    assert Config().engine == "ref"
    monkeypatch.delenv("RERPO_REF_EXEC")
    assert Config().engine == "codegen"


def test_unknown_engine_rejected():
    from repro.jit.config import Config

    with pytest.raises(ValueError):
        Config(engine="threaded")
    cfg = Config()
    with pytest.raises(ValueError):
        cfg.engine = "fast"
    assert cfg.engine in ("codegen", "ref")
