"""The four benchmark workloads: the timed calls and the output checks.

Every workload calls only the public API of ``merminbell``; its inputs come
from ``inputs.make_inputs(workload, seed)``.

``run(workload, inputs, out_dir)`` is the timed region.  ``check(...)``
runs after it and returns one verdict per operation; an operation fails if
it raised, if its record has ``error`` set or ``converged`` false, or if it
fails its check.
"""

from __future__ import annotations

import json
import math
import os

import merminbell
import merminbell.cli
import merminbell.validation
import numpy as np
from merminbell import AngleTriple, LossConfig, LossyEngine

from inputs import N_VALIDATE_OPS, reference_key

REFERENCES_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")

# tolerances of the checks
IDEAL_TOL = 1e-9
REFERENCE_TOL = 1e-8
UNITARITY_TOL = 1e-10


def load_references() -> dict:
    with open(REFERENCES_PATH) as fh:
        return json.load(fh)


# ------------------------------------------------------------------ timed runs


def _attempt(fn):
    """(result, None) or (None, error text): one operation never stops the run."""
    try:
        return fn(), None
    except Exception as exc:  # the benchmark counts it as a failed operation
        return None, f"{type(exc).__name__}: {exc}"


def grid_argv(inputs: dict, out_path: str) -> list[str]:
    argv = ["surface", "--s", *map(str, inputs["s"]), "--r", *map(repr, inputs["r"])]
    argv += ["--eta", *map(repr, inputs["eta"]), "--format", "jsonl", "--workers", "1"]
    return argv + ["--out", out_path]


def run(workload: str, inputs: dict, out_dir: str) -> dict:
    """The timed region of one workload; returns what the checks need."""
    if workload == "optimize":
        return {
            "results": [
                _attempt(lambda p=p: merminbell.optimize_angles(p["s"], p["r"], LossConfig(*p["etas"])))
                for p in inputs["points"]
            ]
        }
    if workload == "grid":
        out_path = os.path.join(out_dir, "grid.jsonl")
        if os.path.exists(out_path):
            os.remove(out_path)
        code, err = _attempt(lambda: merminbell.cli.main(grid_argv(inputs, out_path)))
        return {"exit": code, "error": err, "out_path": out_path}
    if workload == "large-spin":
        return {
            "results": [
                _attempt(
                    lambda p=p: LossyEngine(p["r"], LossConfig.equal_eta(p["eta"])).mermin_sides(
                        p["s"], merminbell.theta_triple(p["theta"])
                    )
                )
                for p in inputs["points"]
            ]
        }
    if workload == "validate":
        cr = inputs["convention_rows"]
        return {
            "suites": _attempt(lambda: merminbell.validation.run_all(fast=False)),
            "rows": _attempt(
                lambda: merminbell.validation.convention_comparison_rows(
                    r=cr["r"], eta_values=cr["eta_values"], theta=cr["theta"]
                )
            ),
        }
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------- checks


def _verdict(name: str, problems: list[str]) -> dict:
    return {"op": name, "ok": not problems, "why": "; ".join(problems)}


def _record_problems(rec) -> list[str]:
    out = []
    if rec.error:
        out.append(f"error set: {rec.error}")
    if not rec.converged:
        out.append("not converged")
    return out


def _ideal_problems(s, angles: AngleTriple, lhs: float, rhs: float) -> list[str]:
    want = merminbell.ideal_mermin_sides(s, angles)
    out = []
    if not abs(lhs - want.lhs) <= IDEAL_TOL:
        out.append(f"lhs off the ideal by {lhs - want.lhs:.3e}")
    if not abs(rhs - want.rhs) <= IDEAL_TOL:
        out.append(f"rhs off the ideal by {rhs - want.rhs:.3e}")
    return out


def _unitarity_defect(s, angle: float) -> float:
    d = merminbell.wigner_d_matrix(s, angle)
    return float(np.max(np.abs(d @ d.T - np.eye(d.shape[0]))))


def _check_optimize(inputs: dict, out: dict, refs: dict) -> list[dict]:
    verdicts = []
    for p, (res, err) in zip(inputs["points"], out["results"]):
        name = f"optimize s={p['s']} etas={p['etas']}"
        if err:
            verdicts.append(_verdict(name, [err]))
            continue
        angles, rec = res
        problems = _record_problems(rec)
        if not rec.violation > 0:
            problems.append(f"violation {rec.violation!r} is not positive")
        again, err = _attempt(
            lambda: LossyEngine(p["r"], LossConfig(*p["etas"])).mermin_sides(p["s"], angles).violation
        )
        if again != rec.violation:
            problems.append(err or f"fresh engine gives {again!r}, not {rec.violation!r}")
        ref = refs["optimize"].get(reference_key(p))
        if ref is None:
            problems.append("no reference optimum for these inputs")
        elif not abs(rec.violation - ref) <= REFERENCE_TOL:
            problems.append(f"violation off the reference by {rec.violation - ref:.3e}")
        verdicts.append(_verdict(name, problems))
    return verdicts


def _grid_rows(out: dict) -> list[dict]:
    if out["error"] or out["exit"] != 0 or not os.path.exists(out["out_path"]):
        return []
    with open(out["out_path"]) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _check_grid(inputs: dict, out: dict) -> list[dict]:
    rows = {(row["s"], row["r"], row["eta"]): row for row in _grid_rows(out)}
    verdicts = []
    for s in inputs["s"]:
        for r in inputs["r"]:
            prev = None
            for eta in inputs["eta"]:  # falling eta
                name = f"grid s={s} r={r} eta={eta}"
                row = rows.get((float(s), r, eta))
                if row is None:
                    why = out["error"] or f"cli exit {out['exit']}"
                    verdicts.append(_verdict(name, [f"row missing ({why})"]))
                    prev = None
                    continue
                problems = []
                if not row["converged"]:
                    problems.append("not converged")
                if row["error"]:
                    problems.append(f"error set: {row['error']}")
                if eta == 1.0:
                    angles = AngleTriple(row["alpha"], row["beta"], row["gamma"])
                    problems += _ideal_problems(s, angles, row["lhs"], row["rhs"])
                if prev is not None and not row["violation"] <= prev:
                    problems.append(f"violation rose to {row['violation']!r} as eta fell")
                prev = row["violation"]
                verdicts.append(_verdict(name, problems))
    return verdicts


def _check_large_spin(inputs: dict, out: dict, refs: dict) -> list[dict]:
    verdicts = []
    for p, (rec, err) in zip(inputs["points"], out["results"]):
        name = f"large-spin s={p['s']} eta={p['eta']}"
        if err:
            verdicts.append(_verdict(name, [err]))
            continue
        problems = _record_problems(rec)
        angles = rec.angles
        s = p["s"]
        if p["eta"] == 1.0:
            # the ideal rhs is the Wigner-free closed form -(1/3) s(s+1) cos(delta)
            problems += _ideal_problems(s, angles, rec.lhs, rec.rhs)
        else:
            ref = refs["large-spin"].get(reference_key(p))
            if ref is None:
                problems.append("no reference for these inputs")
            elif not abs(rec.violation - ref) <= REFERENCE_TOL:
                problems.append(f"violation off the reference by {rec.violation - ref:.3e}")
        for label, angle in (("alpha", angles.alpha), ("beta", angles.beta)):
            defect = _unitarity_defect(s, angle)
            if not defect <= UNITARITY_TOL:
                problems.append(f"rotation block at {label} has unitarity defect {defect:.2e}")
        verdicts.append(_verdict(name, problems))
    return verdicts


_SUITE_ERRORS = {
    "eta1_reduction": ("max_lhs_error", "max_rhs_error"),
    "oracle_equivalence": ("max_joint_error", "max_correlation_error"),
    "exponent_adjudication": ("sector_energy_form_max_error",),
}
N_CONVENTION_ROWS = N_VALIDATE_OPS - len(_SUITE_ERRORS)


def _check_validate(inputs: dict, out: dict) -> list[dict]:
    verdicts = []
    res, err = out["suites"]
    suites = {} if err else {s["name"]: s for s in res[1]["suites"]}
    for name, keys in _SUITE_ERRORS.items():
        suite = suites.get(name)
        if suite is None:
            verdicts.append(_verdict(f"validate {name}", [err or "suite missing"]))
            continue
        problems = [] if suite["passed"] else ["passed is false"]
        for key in keys:
            if not suite[key] <= suite["tolerance"]:
                problems.append(f"{key} {suite[key]:.3e} above {suite['tolerance']:.0e}")
        verdicts.append(_verdict(f"validate {name}", problems))

    rows, err = out["rows"]
    rows = rows or []
    conditioned = {(r["s"], r["eta"]): r for r in rows if r["convention"] == "conditioned"}
    for i in range(N_CONVENTION_ROWS):
        if i >= len(rows):
            verdicts.append(_verdict(f"convention row {i}", [err or "row missing"]))
            continue
        row = rows[i]
        name = f"convention row {row['convention']} s={row['s']} eta={row['eta']}"
        problems = []
        if not all(math.isfinite(row[k]) for k in ("lhs", "rhs", "violation")):
            problems.append("non-finite value")
        if not 0.0 < row["sector_probability"] <= 1.0:
            problems.append(f"sector probability {row['sector_probability']!r}")
        if row["violation"] != row["rhs"] - row["lhs"]:
            problems.append("violation is not rhs - lhs")
        cond = conditioned.get((row["s"], row["eta"]))
        if row["convention"] == "conditioned" and row["eta"] == 1.0:
            angles = merminbell.theta_triple(row["theta"])
            problems += _ideal_problems(row["s"], angles, row["lhs"], row["rhs"])
        if row["convention"] == "unconditioned" and cond is not None:
            want = cond["lhs"] * row["sector_probability"]
            if not abs(row["lhs"] - want) <= 1e-12 * max(abs(want), 1.0):
                problems.append("unconditioned lhs is not conditioned lhs x probability")
        verdicts.append(_verdict(name, problems))
    return verdicts


def check(workload: str, inputs: dict, out: dict) -> list[dict]:
    """One verdict per operation: {"op", "ok", "why"}."""
    if workload == "optimize":
        return _check_optimize(inputs, out, load_references())
    if workload == "grid":
        return _check_grid(inputs, out)
    if workload == "large-spin":
        return _check_large_spin(inputs, out, load_references())
    if workload == "validate":
        return _check_validate(inputs, out)
    raise ValueError(f"unknown workload {workload!r}")
