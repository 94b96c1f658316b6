"""Summary statistics and the cost-model fit."""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy.optimize import nnls

from repro.jit.config import CostModel

#: minimum samples beyond the reported tail percentile
TAIL_BEYOND = 10


def median(xs: Sequence[float]) -> float:
    s = sorted(xs)
    n = len(s)
    return s[n // 2] if n % 2 else 0.5 * (s[n // 2 - 1] + s[n // 2])


def gmean(xs: Sequence[float]) -> float:
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def tail(xs: Sequence[float]) -> Tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    :data:`TAIL_BEYOND` samples above it (nearest-rank)."""
    s = sorted(xs)
    k = max(0, len(s) - TAIL_BEYOND - 1)
    return s[k], 100.0 * (k + 1) / len(s)


def gmean_of_medians(rows: Dict[str, List[float]]) -> float:
    """Geometric mean over groups (programs or request kinds) of each
    group's median."""
    return gmean([median(v) for v in rows.values()])


#: telemetry features, in CostModel weight order
COST_FEATURES = ("native_op", "generic_op_extra", "interp_op", "guard",
                 "deopt_event", "deoptless_dispatch", "compile_per_instr")


def cost_features(delta: Dict[str, float]) -> List[float]:
    """One request's CostModel inputs from a snapshot delta."""
    return [
        delta["native_ops"], delta["native_generic_ops"], delta["interp_ops"],
        delta["guards"], max(0, delta["deopts"] - delta["deoptless_dispatches"]),
        delta["deoptless_dispatches"], delta["compiled_instrs"],
    ]


def fit_cost_model(features: List[List[float]], wall_ns: List[float]) -> Dict[str, float]:
    """Non-negative least-squares fit of the CostModel weights (ns per
    unit) to measured request times.  Also fits the default weights with
    one scale (ns per simulated cycle).  Residuals are ||y - fit|| / ||y||."""
    X = np.asarray(features, dtype=float)
    y = np.asarray(wall_ns, dtype=float)
    ynorm = float(np.linalg.norm(y)) or 1.0
    out: Dict[str, float] = {}
    # scale columns so the solver sees comparable magnitudes
    scale = np.where(X.max(axis=0) > 0, X.max(axis=0), 1.0)
    w, _ = nnls(X / scale, y)
    w = w / scale
    for name, value in zip(COST_FEATURES, w):
        out[name] = float(value)
    out["fit_residual"] = float(np.linalg.norm(y - X @ w)) / ynorm
    defaults = CostModel()
    cycles = X @ np.asarray([getattr(defaults, f) for f in COST_FEATURES])
    denom = float(cycles @ cycles)
    ns_per_cycle = float(cycles @ y) / denom if denom > 0 else 0.0
    out["ns_per_cycle"] = ns_per_cycle
    out["default_residual"] = float(np.linalg.norm(y - ns_per_cycle * cycles)) / ynorm
    return out
