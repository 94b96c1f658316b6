"""Reference outputs from the non-speculating interpreter.

Every benchmark request is checked against the result the same mini-R
source gives with ``Config(enable_jit=False)``: no compilation, no
speculation, no deoptimization.  A request is a source string evaluated
after a *prelude* (program source and setup statements); requests are
self-contained, so their expected output depends only on the prelude and
the request itself, never on the requests that ran before.

Expected outputs are cached on disk under ``.bench_build/`` in the
checkout, keyed by a digest of every file of the ``repro`` package plus the
prelude and request text, so a cached answer is always the answer of the
interpreter in this tree.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Iterable, List, Sequence, Tuple

from repro import Config, from_r
from repro.jit.vm import RVM
from repro.runtime.values import RNull, RVector


def normalize(value, output: Sequence[str]) -> str:
    """Comparable form of one request's result and printed output."""
    if isinstance(value, (RVector, RNull)):
        shown = repr(from_r(value))
    else:
        shown = "<%s>" % type(value).__name__
    return shown + "|" + "".join(output)


def run_request(vm: RVM, source: str) -> str:
    """Evaluate ``source`` on ``vm``; the normalized result and output."""
    mark = len(vm.output)
    value = vm.eval(source)
    return normalize(value, vm.output[mark:])


def tree_digest(package_dir: str) -> str:
    """Digest of every source file of the package (path and content)."""
    h = hashlib.sha256()
    for root, dirs, files in os.walk(package_dir):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                h.update(os.path.relpath(path, package_dir).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


class Oracle:
    """Expected outputs for (prelude, request) pairs, cached on disk."""

    def __init__(self, cache_dir: str, package_dir: str):
        self.cache_dir = cache_dir
        self.tree = tree_digest(package_dir)

    def _path(self, prelude: Tuple[str, ...], requests: Iterable[str]) -> str:
        h = hashlib.sha256(self.tree.encode())
        for part in prelude:
            h.update(b"\0p" + part.encode())
        for req in requests:
            h.update(b"\0r" + req.encode())
        return os.path.join(self.cache_dir, h.hexdigest() + ".json")

    def expect(self, prelude: Tuple[str, ...],
               requests: Iterable[str]) -> Dict[str, str]:
        """Map each request (and each prelude step) to its normalized
        reference output."""
        requests = sorted(set(requests))
        path = self._path(prelude, requests)
        try:
            with open(path) as fh:
                return json.load(fh)
        except (OSError, ValueError):
            pass
        out: Dict[str, str] = {}
        vm = RVM(Config(enable_jit=False))
        for step in prelude:
            out[step] = run_request(vm, step)
        for req in requests:
            if req not in out:
                out[req] = run_request(vm, req)
        os.makedirs(self.cache_dir, exist_ok=True)
        tmp = path + ".%d.tmp" % os.getpid()
        with open(tmp, "w") as fh:
            json.dump(out, fh)
        os.replace(tmp, path)
        return out

    def check(self, records: List[dict]) -> int:
        """Mark each record ``ok`` against the reference; returns the
        number of failures.  A record carries ``prelude`` (tuple of
        sources), ``steps`` (the request sources it evaluated) and ``got``
        (their normalized outputs; None when the request raised)."""
        by_prelude: Dict[Tuple[str, ...], set] = {}
        for rec in records:
            by_prelude.setdefault(rec["prelude"], set()).update(rec["steps"])
        expected = {prelude: self.expect(prelude, steps)
                    for prelude, steps in by_prelude.items()}
        failed = 0
        for rec in records:
            want = expected[rec["prelude"]]
            rec["ok"] = rec["got"] is not None and \
                rec["got"] == [want[s] for s in rec["steps"]]
            failed += not rec["ok"]
        return failed
