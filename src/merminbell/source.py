"""Sector weights of the twin two-mode-squeezed source.

With equal squeezing r in both squeezers, the four-mode state decomposes
into total-spin sectors s = 0, 1/2, 1, ... whose amplitude per sector is
tanh(r)^s / cosh(r) on each side.  The pi phase shift on one of the modes
turns every sector into the two-spin singlet, with sign (-1)^(s-m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .numerics import HalfInt

__all__ = [
    "sector_amplitude",
    "sector_weight",
    "sector_weight_tail",
    "singlet_sign",
    "FockWeights",
    "fock_weight_distribution",
]

# largest photon-number window of ``fock_weight_distribution``, automatic or explicit
N_MAX_CAP = 400


def _check_r(r: float) -> float:
    r = float(r)
    if r < 0 or not math.isfinite(r):
        raise ValueError("squeezing parameter must be finite and nonnegative")
    return r


def _log_cosh(r: float) -> float:
    """ln cosh(r); r - ln 2, equal to it to rounding there, where cosh(r) overflows a float (r above about 710)."""
    try:
        return math.log(math.cosh(r))
    except OverflowError:
        return r - math.log(2.0)


def sector_amplitude(s, r: float) -> float:
    """Per-side amplitude factor tanh(r)^s / cosh(r) of the spin-s sector."""
    r = _check_r(r)
    sv = HalfInt.of(s).value
    if sv < 0:
        raise ValueError("spin must be nonnegative")
    try:
        return math.tanh(r) ** sv / math.cosh(r)
    except OverflowError:
        return math.tanh(r) ** sv * math.exp(-_log_cosh(r))


def sector_weight(s, r: float) -> float:
    """Probability (2s+1) * amplitude^4 of finding the source in sector s.

    Summed over all half-integer s this is exactly 1.
    """
    ts = HalfInt.of(s).twice
    return (ts + 1) * sector_amplitude(s, r) ** 4


def sector_weight_tail(s_cut, r: float) -> float:
    """Exact total weight of all sectors beyond s_cut.

    Closed form of sum_{n>N} (n+1) y^n / (cosh^4) with y = tanh(r)^2 and
    N = 2*s_cut; the cosh factors cancel against (1-y)^2.
    """
    r = _check_r(r)
    n_cut = HalfInt.of(s_cut).twice
    y = math.tanh(r) ** 2
    if y == 0.0:
        return 0.0
    return (n_cut + 2) * y ** (n_cut + 1) - (n_cut + 1) * y ** (n_cut + 2)


def singlet_sign(s, m) -> int:
    """Sign (-1)^(s-m) of the singlet component |s m>|s -m>.

    This is the phase imprinted by the pi shift on the second mode, whose
    occupation is s - m.
    """
    ts, tm = HalfInt.of(s).twice, HalfInt.of(m).twice
    if (ts - tm) % 2 != 0 or abs(tm) > ts:
        raise ValueError("invalid (s, m) label")
    return -1 if ((ts - tm) // 2) % 2 else 1


@dataclass(frozen=True)
class FockWeights:
    """Photon-number weights of one squeezed mode pair.

    ``probabilities`` is renormalized over 0..n_max; ``tail_mass`` is the
    exact weight left above the window.
    """

    r: float
    probabilities: dict[int, float]
    tail_mass: float


def fock_weight_distribution(r: float, n_max: int | None = None, tail_tol: float = 1e-12) -> FockWeights:
    """Per-pair photon-number distribution p(n) ~ tanh(r)^(2n) / cosh(r)^2.

    When ``n_max`` is omitted it is chosen as the smallest window whose tail
    mass is below ``tail_tol``, capped at ``N_MAX_CAP``; an explicit ``n_max``
    outside 0..``N_MAX_CAP`` raises ``ValueError``.
    """
    r = _check_r(r)
    y = math.tanh(r) ** 2
    if n_max is None:
        n_max = 0
        while y > 0 and y ** (n_max + 1) > tail_tol and n_max < N_MAX_CAP:
            n_max += 1
    if not 0 <= n_max <= N_MAX_CAP:
        raise ValueError(f"n_max must be in 0..{N_MAX_CAP}")
    raw = [(1.0 - y) * y ** n for n in range(n_max + 1)]
    tail = y ** (n_max + 1)
    kept = 1.0 - tail
    probs = {n: (p / kept if kept > 0 else 0.0) for n, p in enumerate(raw)}
    return FockWeights(r=r, probabilities=probs, tail_mass=tail)
