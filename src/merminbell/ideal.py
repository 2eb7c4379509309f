"""Lossless inequality quantities for two spins s in the singlet state.

Analyzers rotate about the y axis inside the x-z plane: the direction at
angle theta measures S_theta = cos(theta) S_z + sin(theta) S_x.  All joint
statistics of the singlet depend only on the analyzer angle difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import HalfInt, wigner_d, wigner_d_matrix

__all__ = [
    "AngleTriple",
    "InequalitySides",
    "ChshRecord",
    "theta_triple",
    "ideal_pair_probability",
    "ideal_correlation",
    "ideal_mermin_sides",
    "chsh_spin_s",
    "chsh_threshold_spin",
]


@dataclass(frozen=True)
class AngleTriple:
    """Analyzer directions: Alice uses alpha or beta, Bob uses gamma."""

    alpha: float
    beta: float
    gamma: float


@dataclass(frozen=True)
class InequalitySides:
    """Both sides of the counterfactual bound; violation = rhs - lhs."""

    lhs: float
    rhs: float
    violation: float

    @classmethod
    def of(cls, lhs: float, rhs: float) -> "InequalitySides":
        return cls(lhs=lhs, rhs=rhs, violation=rhs - lhs)


def theta_triple(theta: float, base: float = 0.0) -> AngleTriple:
    """One-parameter analyzer family used by the sweep drivers.

    alpha = base + pi/2 + theta, beta = base - pi/2 - theta, gamma = base.
    At theta = 0 both sides of the inequality coincide; for small positive
    theta the right side grows linearly while the left side only grows
    quadratically, opening a violation window that closes near theta ~ 1/s.
    """
    return AngleTriple(base + math.pi / 2 + theta, base - math.pi / 2 - theta, base)


def ideal_pair_probability(s, m, m_p, delta: float) -> float:
    """P(m, m', delta): Alice reads m, Bob reads m', analyzers delta apart.

    Equals |d^s_{m m'}(pi - delta)|^2 / (2s+1) = |d^s_{m, -m'}(delta)|^2 / (2s+1),
    read at delta itself, not at a rounded pi - delta; at delta = 0 the
    outcomes are perfectly anticorrelated.
    """
    ts = HalfInt.of(s).twice
    d = wigner_d(s, m, -HalfInt.of(m_p), float(delta))
    return d * d / (ts + 1)


def ideal_correlation(s, delta: float) -> float:
    """<S_A,alpha S_B,beta> in the singlet: -(1/3) s(s+1) cos(delta)."""
    sv = HalfInt.of(s).value
    return -(sv * (sv + 1) / 3.0) * math.cos(delta)


def ideal_mermin_sides(s, angles: AngleTriple) -> InequalitySides:
    """Both sides of the inequality at perfect detection.

    lhs = s * sum |m - m'| P(m, m', alpha-beta);
    rhs = corr(alpha-gamma) + corr(beta-gamma).
    """
    s = HalfInt.of(s)
    # |d(pi - delta)[m, m']| = |d(delta)[m, -m']|: the columns reversed, at the exact angle
    d = wigner_d_matrix(s, angles.alpha - angles.beta)[:, ::-1]
    m = np.arange(s.twice + 1)
    terms = np.abs(m[:, None] - m[None, :]) * (d * d / (s.twice + 1))
    # summed in sequence, m then m' ascending, so the eta = 1 reference
    # keeps the rounding of the element-by-element sum
    lhs = s.value * float(np.cumsum(terms.ravel())[-1])
    rhs = ideal_correlation(s, angles.alpha - angles.gamma) + ideal_correlation(
        s, angles.beta - angles.gamma
    )
    return InequalitySides.of(lhs, rhs)


@dataclass(frozen=True)
class ChshRecord:
    lhs_abs: float
    bound: float
    satisfied: bool


def chsh_spin_s(s, alpha: float, beta: float, gamma: float, delta: float) -> ChshRecord:
    """Spin-s CHSH combination against its local bound 6s/(s+1).

    The bound is a continuous function of s, so any positive real spin is
    accepted (the threshold spin where the bound meets 2*sqrt(2) is not a
    half-integer).
    """
    sv = s.value if isinstance(s, HalfInt) else float(s)
    if sv <= 0:
        raise ValueError("spin must be positive")
    lhs_abs = abs(
        math.cos(alpha - beta)
        + math.cos(gamma - beta)
        + math.cos(alpha - delta)
        - math.cos(gamma - delta)
    )
    bound = 6.0 * sv / (sv + 1.0)
    return ChshRecord(lhs_abs=lhs_abs, bound=bound, satisfied=lhs_abs <= bound)


def chsh_threshold_spin() -> float:
    """Spin at which the quantum maximum 2*sqrt(2) meets the bound 6s/(s+1)."""
    return math.sqrt(2.0) / (3.0 - math.sqrt(2.0))
