"""Tests for the Python-codegen execution engine (native/pycodegen.py).

The codegen engine emits one specialized exec'd function per NativeCode
unit.  Equivalence with the reference engine (results + bit-identical
dispatch signatures) is proven exhaustively in test_threaded_equivalence.py
and the fuzz suite; this module covers the engine's own machinery:
source/function caching on the unit and its cache template, totality
(emission never fails on the workload registry; a unit it cannot translate
is a loud compile failure, not a silent slower engine), and warm-start
persistence of the generated source (a disk hit must skip the emitter
entirely; an artifact whose source does not compile is a cache miss).
"""

from __future__ import annotations

import os
import pickle

import pytest

from conftest import make_vm
from repro import from_r
from repro.ir.builder import CompilationFailure
from repro.jit import vm as vm_module
from repro.native import pycodegen
from repro.runtime.values import RError

SUM_SRC = """
s <- function(v, n) {
  acc <- 0
  i <- 1
  while (i <= n) { acc <- acc + v[[i]]; i <- i + 1 }
  acc
}
"""


def hot_vm(**kw):
    # engine pinned explicitly: these tests exercise the codegen engine
    # even on the RERPO_REF_EXEC=1 CI leg (only the *default* comes from
    # the env)
    cfg = dict(compile_threshold=1, osr_threshold=100000, engine="codegen")
    cfg.update(kw)
    vm = make_vm(**cfg)
    vm.eval(SUM_SRC)
    vm.eval("v <- 1.5 * (1:64)")
    return vm


def drive(vm, n=6):
    return [from_r(vm.eval("s(v, 64L)")) for _ in range(n)]


def compiled_unit(vm, name="s"):
    closure = vm.get_global(name)
    assert closure.jit is not None and closure.jit.version is not None
    return closure.jit.version


# ---------------------------------------------------------------------------
# the engine itself
# ---------------------------------------------------------------------------

def test_codegen_tier_binds_one_function_per_unit():
    vm = hot_vm()
    results = drive(vm)
    assert len(set(results)) == 1
    nc = compiled_unit(vm)
    assert isinstance(nc.pysrc, str) and nc.pysrc, "no source emitted"
    assert callable(nc.pyfunc), "source never bound"
    assert vm.state.pycodegen_units >= 1
    assert vm.state.pycodegen_failures == 0


def test_generated_source_backpropagates_to_template():
    """Install clones share the template's emitted source and bound
    function."""
    vm = hot_vm()
    drive(vm)
    nc = compiled_unit(vm)
    tmpl = nc.cache_template
    if tmpl is None:  # cache disabled in this configuration — nothing shared
        return
    assert tmpl.pysrc == nc.pysrc
    assert tmpl.pyfunc is nc.pyfunc, "clone must reuse the template binding"


def _forge(ncode):
    """A copy of ``ncode`` whose entry block starts with a bogus opcode."""
    forged = ncode.clone_for_install()
    forged.pysrc = None
    forged.pyconsts = None
    forged.pyfunc = None
    forged.cache_template = None
    forged.ops = [(999999,)] + list(forged.ops)  # entry block: always walked
    return forged


def test_untranslatable_unit_raises_compilation_failure(monkeypatch):
    """A unit the emitter cannot translate is a CompilationFailure at the
    site that lowered it: counted, handled like any failed compile (the
    closure stays interpreted) and never run on a slower engine."""
    vm = hot_vm()
    drive(vm)
    forged = _forge(compiled_unit(vm))
    with pytest.raises(CompilationFailure):
        pycodegen.ensure_source(forged, vm.state)
    assert forged.pysrc is None
    assert vm.state.pycodegen_failures == 1
    with pytest.raises(CompilationFailure):
        pycodegen.bind(forged, vm)

    # the same failure through a real compile site
    real_lower = vm_module.lower
    monkeypatch.setattr(vm_module, "lower",
                        lambda graph, **kw: _forge(real_lower(graph, **kw)))
    vm = hot_vm(codecache=False)
    results = drive(vm)
    closure = vm.get_global("s")
    assert closure.jit.version is None and closure.jit.cant_compile
    assert vm.state.compiles == 0 and vm.state.compile_failures == 1
    assert vm.state.pycodegen_failures == 1
    assert results == drive(hot_vm(enable_jit=False))


def test_generated_prologue_rejects_arity_mismatch():
    """The generated prologue's argument-count check is an internal error,
    never a detour through another engine."""
    vm = hot_vm()
    drive(vm)
    nc = compiled_unit(vm)
    with pytest.raises(RError, match="internal"):
        nc.pyfunc(nc, vm, [], None)


def test_chaos_deopt_from_generated_code_recovers():
    """A chaos-forced deopt raised inside an exec'd function must land on
    the standard recovery path and keep producing correct results."""
    vm = hot_vm(chaos_rate=0.05, chaos_seed=7, enable_deoptless=True)
    results = drive(vm, n=10)
    assert len(set(results)) == 1
    assert vm.state.deopts > 0, "chaos never fired"
    assert compiled_unit(vm).pyfunc is not None


# ---------------------------------------------------------------------------
# warm-start persistence
# ---------------------------------------------------------------------------

def test_warm_start_reuses_generated_source(tmp_path):
    d = str(tmp_path / "cc")
    vm1 = hot_vm(codecache=True, codecache_dir=d)
    cold = drive(vm1)
    assert vm1.state.pycodegen_units >= 1
    vm1.save_code_cache()

    vm2 = hot_vm(codecache=True, codecache_dir=d)
    warm = drive(vm2)
    assert warm == cold
    assert vm2.state.codecache_disk_hits >= 1, "unit not served from disk"
    assert vm2.state.pycodegen_src_reuses >= 1, \
        "generated source did not ride in on the artifact"
    assert vm2.state.pycodegen_units == 0, \
        "warm start must skip the emitter entirely"
    nc = compiled_unit(vm2)
    assert callable(nc.pyfunc), "persisted source never bound"


def test_persisted_artifact_not_consumed_by_ref_engine(tmp_path):
    """An artifact written by a codegen VM still warm-starts a reference-
    engine VM — the source keys are optional extensions and the reference
    loops simply ignore them."""
    d = str(tmp_path / "cc")
    vm1 = hot_vm(codecache=True, codecache_dir=d)
    cold = drive(vm1)
    vm1.save_code_cache()

    vm2 = hot_vm(codecache=True, codecache_dir=d, engine="ref")
    warm = drive(vm2)
    assert warm == cold
    assert vm2.state.codecache_disk_hits >= 1
    nc = compiled_unit(vm2)
    assert nc.pyfunc is None
    assert vm2.state.pycodegen_units == 0


def _bucket_files(d):
    return [os.path.join(root, f) for root, _dirs, files in os.walk(d)
            for f in files if f.endswith(".ccache")]


def _warm_start_after(tmp_path, damage):
    """Save a codegen VM's artifacts, apply ``damage`` to every bucket file,
    then warm-start a second codegen VM from them."""
    d = str(tmp_path / "cc")
    vm1 = hot_vm(codecache=True, codecache_dir=d)
    drive(vm1)
    vm1.save_code_cache()
    files = _bucket_files(d)
    assert files, "nothing persisted"
    for path in files:
        damage(path)
    vm2 = hot_vm(codecache=True, codecache_dir=d)
    return vm2, drive(vm2)


def test_uncompilable_persisted_source_is_a_cache_miss(tmp_path):
    """Generated source that does not compile marks the whole artifact
    corrupt: PersistError, a cache miss, then a normal compile."""

    def break_source(path):
        with open(path, "rb") as f:
            bucket = pickle.load(f)
        entries = bucket["entries"]
        for digest, data in entries.items():
            # same length, so the pickle framing stays valid
            assert b"def _unit(" in data
            entries[digest] = data.replace(b"def _unit(", b"def _unit)")
        with open(path, "wb") as f:
            pickle.dump(bucket, f, protocol=4)

    vm, results = _warm_start_after(tmp_path, break_source)
    assert results == drive(hot_vm(enable_jit=False))
    assert vm.state.codecache_persist_failures >= 1
    assert vm.state.codecache_disk_hits == 0
    assert vm.state.pycodegen_src_reuses == 0
    assert vm.state.compiles >= 1 and vm.state.pycodegen_units >= 1
    assert callable(compiled_unit(vm).pyfunc)


def test_truncated_artifact_file_is_a_cache_miss(tmp_path):
    def truncate(path):
        size = os.path.getsize(path)
        with open(path, "r+b") as f:
            f.truncate(size // 2)

    vm, results = _warm_start_after(tmp_path, truncate)
    assert results == drive(hot_vm(enable_jit=False))
    assert vm.state.codecache_disk_hits == 0
    assert vm.state.compiles >= 1
    assert callable(compiled_unit(vm).pyfunc)

