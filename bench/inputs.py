"""Seeded inputs of the four benchmark workloads.

The seed picks one offset from each of the fixed lists below, so it moves
r (at most +-0.02), every eta below 1 (at most +-0.01) and theta (at most
+-5%) while spins, grid shapes, the loss pattern and the eta=1 points stay
fixed; the cost class of a workload does not change with the seed.  Because
the offsets come from short lists, every input a seed can pick has a
reference value in ``references.json``, recorded from the unmodified
package by ``record_references.py``.  This module does not import
merminbell.
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("optimize", "grid", "large-spin", "validate")
DEFAULT_SEED = 1

R_OFFSETS = (-0.02, -0.01, 0.0, 0.01, 0.02)
ETA_OFFSETS = (-0.01, -0.005, 0.0, 0.005, 0.01)
THETA_FACTORS = (0.95, 0.975, 1.0, 1.025, 1.05)


def _offsets(seed: int) -> tuple[float, float, float]:
    rng = random.Random(seed)
    return rng.choice(R_OFFSETS), rng.choice(ETA_OFFSETS), rng.choice(THETA_FACTORS)


def _clean(x: float) -> float:
    return round(x, 9)


def optimize_points(r_off: float, eta_off: float) -> list[dict]:
    r = _clean(0.3 + r_off)
    return [
        {"s": 3, "r": r, "etas": [_clean(0.85 + eta_off)] * 4},
        {"s": 2, "r": r, "etas": [_clean(e + eta_off) for e in (0.9, 0.8, 0.85, 0.75)]},
    ]


def large_spin_points(r_off: float, eta_off: float, theta_factor: float) -> list[dict]:
    r = _clean(0.3 + r_off)
    pts = [(10, 1.0), (20, 1.0), (30, 1.0), (15, _clean(0.9 + eta_off))]
    return [{"s": s, "r": r, "eta": eta, "theta": _clean(theta_factor * 0.3 / s)} for s, eta in pts]


def make_inputs(workload: str, seed: int) -> dict:
    """The concrete inputs of one workload for one seed (JSON-serialisable)."""
    r_off, eta_off, tf = _offsets(seed)
    if workload == "optimize":
        return {"points": optimize_points(r_off, eta_off)}
    if workload == "grid":
        return {
            "s": [1, 2],
            "r": [_clean(0.2 + r_off), _clean(0.4 + r_off)],
            "eta": [1.0, _clean(0.9 + eta_off), _clean(0.8 + eta_off)],
        }
    if workload == "large-spin":
        return {"points": large_spin_points(r_off, eta_off, tf)}
    if workload == "validate":
        return {
            "convention_rows": {
                "r": _clean(0.3 + r_off),
                "eta_values": [1.0] + [_clean(e + eta_off) for e in (0.9, 0.8, 0.7)],
                "theta": _clean(0.25 * tf),
            }
        }
    raise ValueError(f"unknown workload {workload!r}")


def reference_key(point: dict) -> str:
    return json.dumps(point, sort_keys=True)


# operations per workload run: 3 validation suites + 24 convention rows
N_VALIDATE_OPS = 3 + 24


def expected_ops(workload: str, inputs: dict) -> int:
    """How many operations one run of the workload attempts."""
    if workload == "grid":
        return len(inputs["s"]) * len(inputs["r"]) * len(inputs["eta"])
    if workload == "validate":
        return N_VALIDATE_OPS
    return len(inputs["points"])
