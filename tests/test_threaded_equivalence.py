"""Differential proof that the two execution engines are equivalent.

The reference if/elif loops (``Config.engine="ref"``, ``RERPO_REF_EXEC=1``)
are the semantic spec; the per-unit Python-codegen engine (the default) must
be observationally identical to them: same results, same deopt event
stream, and the exact same op/guard telemetry (the cost model's inputs).
Every workload in the benchmark registry is run on both engines across tier
configurations, including chaos mode with fixed seeds, and the full
dispatch signatures are compared; the codegen runs must also be free of
emitter failures (codegen is total).
"""

import threading

import pytest

from conftest import make_vm
from repro import from_r
from repro.bench.programs import REGISTRY

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


def run_workload(name, cfg, engine, repeats=2):
    w = REGISTRY.get(name)
    vm = make_vm(engine=engine, **cfg)
    vm.eval(w.source)
    vm.eval(w.setup_code(w.n_test))
    results = [from_r(vm.eval(w.call_code(w.n_test))) for _ in range(repeats)]
    if engine == "codegen":
        assert vm.state.pycodegen_failures == 0, "%s: emitter failed" % name
    return results, vm.state.dispatch_signature()


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
        (c_results, c_sig), (r_results, r_sig) = run_side_by_side(name, cfg)
    else:
        c_results, c_sig = run_workload(name, cfg, "codegen")
        r_results, r_sig = run_workload(name, cfg, "ref")
    assert c_results == r_results, "%s[%s]: results diverged" % (name, mode)
    for key in r_sig:
        assert c_sig[key] == r_sig[key], (
            "%s[%s]: %s diverged: codegen=%r reference=%r"
            % (name, mode, key, c_sig[key], r_sig[key])
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
