"""Cross-validation suites: ideal reduction, oracle equivalence, bookkeeping.

These are the checks the ``validate`` command runs.  They compare the
analytic loss sums against the independent Fock-space oracle on matched
source truncations, verify that perfect detection reproduces the lossless
closed forms, and adjudicate the two candidate loss-exponent bookkeepings
for the correlation sums.
"""

from __future__ import annotations

import math
from typing import Iterable

from .ideal import AngleTriple, ideal_mermin_sides
from .loss import LossConfig
from .lossy import (
    LossyEngine,
    TruncationPolicy,
    correlation_alt_bookkeeping,
)
from .numerics import HalfInt, half_range
from .oracle import simulate_joint

__all__ = [
    "REDUCTION_TRIPLES",
    "eta1_reduction_report",
    "oracle_equivalence_report",
    "exponent_adjudication_report",
    "convention_comparison_rows",
    "run_all",
]

_PI = math.pi

REDUCTION_TRIPLES: tuple[AngleTriple, ...] = (
    AngleTriple(0.3, -0.7, 0.1),
    AngleTriple(_PI / 2 + 0.2, -_PI / 2 - 0.2, 0.0),
    AngleTriple(1.0, 2.0, 3.0),
    AngleTriple(-0.4, 0.9, -1.7),
    AngleTriple(0.05, 2.9, 1.3),
    AngleTriple(2.2, -2.2, 0.6),
    AngleTriple(0.8, 0.8, -0.8),
    AngleTriple(1.57, -1.57, 3.14),
)

ORACLE_TRIPLES: tuple[AngleTriple, ...] = (
    AngleTriple(0.35, -0.9, 0.1),
    AngleTriple(_PI / 2 + 0.25, -_PI / 2 - 0.25, 0.0),
    AngleTriple(1.1, 0.4, 2.2),
    AngleTriple(0.0, 0.6, -0.45),
)


def _worst(errors: list[tuple[float, dict]]) -> tuple[float, dict | None]:
    """The largest error and the first setting where it occurred."""
    return max(errors, key=lambda e: e[0], default=(0.0, None))


def eta1_reduction_report(
    s_values: Iterable = (HalfInt(1), HalfInt(2), HalfInt(3), HalfInt(4), HalfInt(5)),
    r_values: Iterable[float] = (0.2, 0.5),
    triples: Iterable[AngleTriple] = REDUCTION_TRIPLES,
    tol: float = 1e-9,
) -> dict:
    """Perfect-detection reduction: lossy sides must equal the ideal forms."""
    lhs_errors, rhs_errors = [], []
    for r in r_values:
        eng = LossyEngine(r, LossConfig.equal_eta(1.0))
        for s in s_values:
            s = HalfInt.of(s)
            policy = TruncationPolicy(s_start=s, max_s=s + HalfInt(4))
            for ang in triples:
                got = eng.mermin_sides(s, ang, policy)
                want = ideal_mermin_sides(s, ang)
                where = {
                    "r": r, "s": s.value, "alpha": ang.alpha, "beta": ang.beta, "gamma": ang.gamma
                }
                lhs_errors.append((abs(got.lhs - want.lhs), where))
                rhs_errors.append((abs(got.rhs - want.rhs), where))
    max_lhs, worst_lhs = _worst(lhs_errors)
    max_rhs, worst_rhs = _worst(rhs_errors)
    passed = max_lhs <= tol and max_rhs <= tol
    return {
        "name": "eta1_reduction",
        "max_lhs_error": max_lhs,
        "max_rhs_error": max_rhs,
        "worst_lhs": worst_lhs,
        "worst_rhs": worst_rhs,
        "tolerance": tol,
        "passed": passed,
    }


def oracle_equivalence_report(
    r_values: Iterable[float] = (0.2, 0.5),
    eta_values: Iterable[float] = (0.5, 0.8, 1.0),
    triples: Iterable[AngleTriple] = ORACLE_TRIPLES,
    cutoff: int = 4,
    sector_max=HalfInt(4),
    tol: float = 1e-8,
) -> dict:
    """Closed-form sums vs the Fock oracle on a matched source truncation.

    The source sum of both routes is capped at ``sector_max`` so they
    evaluate the same truncated state; agreement is then limited only by
    floating-point roundoff.  Each efficiency in ``eta_values`` is checked
    at equal loss, plus one unequal-loss configuration.
    """
    s_cap = HalfInt.of(sector_max)
    policy = TruncationPolicy(s_start=s_cap, max_s=s_cap)
    joint_errors, corr_errors = [], []
    configs = [LossConfig.equal_eta(eta) for eta in eta_values] + [LossConfig(0.9, 0.7, 0.8, 0.6)]
    for r in r_values:
        for loss in configs:
            eng = LossyEngine(r, loss)
            for ang in triples:
                want = simulate_joint(r, loss, ang.alpha, ang.beta, cutoff, sector_max=s_cap)
                got = eng.joint(ang.alpha, ang.beta, policy)
                where = {"r": r, "etas": list(loss.etas()), "alpha": ang.alpha, "beta": ang.beta}
                diff, key = want.largest_difference(got)
                joint_errors.append((diff, {**where, "key": list(key)}))
                for s_star in half_range(HalfInt(1), s_cap):
                    if want.sector_probability(s_star, s_star) < 1e-12:
                        continue
                    c_oracle = want.correlation(sector=(s_star, s_star), conditioned=True)
                    c_closed, _, _, _ = eng.correlation(ang.alpha, ang.beta, s_star, policy)
                    corr_errors.append((abs(c_oracle - c_closed), {**where, "s": s_star.value}))
    max_joint, worst_joint = _worst(joint_errors)
    max_corr, worst_corr = _worst(corr_errors)
    passed = max_joint <= tol and max_corr <= tol
    return {
        "name": "oracle_equivalence",
        "max_joint_error": max_joint,
        "max_correlation_error": max_corr,
        "worst_joint": worst_joint,
        "worst_correlation": worst_corr,
        "tolerance": tol,
        "passed": passed,
    }


def exponent_adjudication_report(
    r: float = 0.4,
    eta_values: Iterable[float] = (0.5, 0.8),
    angles: tuple[float, float] = (0.7, -0.4),
    cutoff: int = 4,
    sector_max=HalfInt(2),
    tol: float = 1e-8,
) -> dict:
    """Adjudicate the two loss-exponent bookkeepings for the correlations.

    Both candidates are evaluated as full (unconditioned) crosscorrelations
    on the sector-capped source and compared against the oracle's moment
    sum.  The surviving form carries eta^(2 sigma) (1-eta)^(2s - 2 sigma)
    per side in every block, independent of the projection quantum number.
    """
    s_cap = HalfInt.of(sector_max)
    policy = TruncationPolicy(s_start=s_cap, max_s=s_cap)
    alpha, beta = angles
    derived_err = 0.0
    alt_err = 0.0
    rows = []
    for eta in eta_values:
        loss = LossConfig.equal_eta(eta)
        dist = simulate_joint(r, loss, alpha, beta, cutoff, sector_max=s_cap)
        reference = dist.correlation()
        eng = LossyEngine(r, loss)
        derived, _, _, _ = eng.correlation(alpha, beta, None, policy)
        alt = correlation_alt_bookkeeping(r, eta, alpha, beta, s_cap)
        derived_err = max(derived_err, abs(derived - reference))
        alt_err = max(alt_err, abs(alt - reference))
        rows.append(
            {
                "eta": eta,
                "oracle": reference,
                "sector_energy_form": derived,
                "projection_dependent_form": alt,
            }
        )
    confirmed = "sector_energy_form" if derived_err <= tol else "none"
    return {
        "name": "exponent_adjudication",
        "rows": rows,
        "sector_energy_form_max_error": derived_err,
        "projection_dependent_form_max_error": alt_err,
        "confirmed": confirmed,
        "tolerance": tol,
        "passed": confirmed == "sector_energy_form" and alt_err > 10 * tol,
    }


def convention_comparison_rows(
    s_values: Iterable = (HalfInt(1), HalfInt(2), HalfInt(3)),
    r: float = 0.3,
    eta_values: Iterable[float] = (1.0, 0.9, 0.8, 0.7),
    theta: float = 0.25,
) -> list[dict]:
    """Violation under both post-selection conventions, side by side."""
    from .ideal import theta_triple

    rows = []
    for eta in eta_values:
        eng = LossyEngine(r, LossConfig.equal_eta(eta))
        for s in s_values:
            s = HalfInt.of(s)
            angles = theta_triple(theta / max(s.value, 0.5))
            for conv in ("conditioned", "unconditioned"):
                rec = eng.mermin_sides(s, angles, convention=conv)
                rows.append(
                    {
                        "convention": conv,
                        "s": s.value,
                        "r": r,
                        "eta": eta,
                        "theta": theta / max(s.value, 0.5),
                        "lhs": rec.lhs,
                        "rhs": rec.rhs,
                        "violation": rec.violation,
                        "sector_probability": rec.sector_probability,
                    }
                )
    return rows


def run_all(fast: bool = False) -> tuple[bool, dict]:
    """Run the three validation suites; returns (all_passed, report)."""
    if fast:
        reduction = eta1_reduction_report(s_values=(HalfInt(1), HalfInt(2)), r_values=(0.3,))
        oracle = oracle_equivalence_report(
            r_values=(0.4,), eta_values=(0.8, 1.0), triples=ORACLE_TRIPLES[:2],
            cutoff=3, sector_max=HalfInt(3),
        )
    else:
        reduction = eta1_reduction_report()
        oracle = oracle_equivalence_report()
    adjudication = exponent_adjudication_report()
    report = {
        "suites": [reduction, oracle, adjudication],
        "passed": reduction["passed"] and oracle["passed"] and adjudication["passed"],
    }
    return report["passed"], report
