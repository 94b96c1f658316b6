"""Host-speed probe: corrects request times for a shared, noisy host.

On a host shared with other tenants the same CPU work can take 1.6x
longer for seconds at a time (a fixed pure-Python loop on a shared 2-vCPU
x86-64 container: 33 ms in quiet periods, 47-55 ms in busy ones, in
episodes of 2-10 s).
Whole 10-second runs can land in a busy episode, so medians, and even
minima, of raw request times spread by 25-45% between runs.

The probe is a fixed unit of pure-Python work that does not touch the
``repro`` package: a small register-machine loop (list indexing, dict
reads and writes, float arithmetic, calls).  The workloads run it
between requests, outside the timed intervals.  A request's *normalized*
time is its measured time scaled by ``REF_NS / local probe time``, where
the local probe time is the median of the probes around the request.  A
change to the program leaves the probe unchanged, so it shows in the
normalized times in full; what the probe cancels is how fast the host
ran the interpreter at that moment.  Raw times are reported beside the
normalized ones.
"""

from __future__ import annotations

import time
from typing import List, Sequence

#: probe time on an uncontended 2-vCPU x86-64 container with CPython 3.11;
#: normalized times are in "ms at this host speed"
REF_NS = 1_000_000
#: probes on each side of a request that set its local host speed
WINDOW = 5

# (op, a, b, dst): 0 add, 1 scale, 2 store to env, 3 load from env, 4 call
_PROGRAM = [
    (0, 0, 1, 2), (1, 2, 0, 3), (2, "x", 3, 0), (3, "y", 0, 4),
    (0, 3, 4, 5), (4, 5, 0, 6), (2, "y", 6, 0), (1, 6, 0, 1),
    (3, "x", 0, 7), (0, 7, 2, 0),
]
_ROUNDS = 1400


def _halve(v: float) -> float:
    return v * 0.5 + 1.0


def _work() -> float:
    regs = [1.0] * 8
    env = {"x": 0.0, "y": 1.0}
    for _ in range(_ROUNDS):
        for op, a, b, dst in _PROGRAM:
            if op == 0:
                regs[dst] = regs[a] + regs[b]
            elif op == 1:
                regs[dst] = regs[a] * 0.5
            elif op == 2:
                env[a] = regs[b]
            elif op == 3:
                regs[dst] = env.get(a, 1.0)
            else:
                regs[dst] = _halve(regs[a])
        regs[0] = regs[0] % 1000.0
    return regs[0]


def probe() -> int:
    """Nanoseconds the host takes for one unit of probe work."""
    t0 = time.perf_counter_ns()
    _work()
    return time.perf_counter_ns() - t0


def probe_median(k: int = 5) -> int:
    return sorted(probe() for _ in range(k))[k // 2]


def local_speed(probes: Sequence[int]) -> List[float]:
    """Per position, the median probe time of the surrounding window."""
    out = []
    n = len(probes)
    for i in range(n):
        win = sorted(probes[max(0, i - WINDOW):i + WINDOW + 1])
        out.append(win[len(win) // 2])
    return out


def normalize(times: Sequence[float], probes: Sequence[int]) -> List[float]:
    """Scale each time by REF_NS over its local probe time."""
    return [t * REF_NS / s for t, s in zip(times, local_speed(probes))]
