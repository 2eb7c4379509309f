"""Beamsplitter loss channel on Fock states, mode pairs, and spin operators.

A detector of quantum efficiency eta is modeled as a beamsplitter of
transmissivity eta with vacuum on the idle port, traced over the loss port.
On a single mode this turns |n><n'| into a ladder of |k><k+n'-n| terms with
square-rooted binomial weights; on a mode pair the channel factorizes, and
the combined term ladder can be relabeled by the surviving effective spin
(sigma, mu).  Every weight is built from one log-domain binomial thinning,
``log_thinning``; ``log_weight_table`` is the per-side table of it that
``decohere_spin_op`` takes its weights from and whose exp(L / 2) the lossy
engine reads.
Out-of-range binomial coefficients are exact zeros (-inf in the log
domain), which is what enforces every summation bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import HalfInt
from .schwinger import SpinLabel

__all__ = [
    "LossConfig",
    "ModeOperatorTerm",
    "SpinOperatorTerm",
    "decohere_fock",
    "decohere_single",
    "min_output_spin",
    "decohere_spin_op",
    "log_thinning",
    "log_weight_table",
]

_NEG_INF = float("-inf")
# ln k! for photon counts up to twice the deepest source cutoff (2s = 400)
_LGF = np.array([math.lgamma(i + 1.0) for i in range(804)])


@dataclass(frozen=True)
class LossConfig:
    """Transmissivities of the four optical paths a1, a2, b1, b2.

    Both routes, the engine and the Fock oracle, apply them as path loss on
    the source modes, before the analyzers.  That equals detector
    inefficiency after the analyzer only when the loss is equal within each
    side (eta_a1 == eta_a2 and eta_b1 == eta_b2), where it commutes with the
    analyzer rotation; detector efficiencies after the analyzer are
    ROADMAP.md item 12.
    """

    eta_a1: float
    eta_a2: float
    eta_b1: float
    eta_b2: float

    def __post_init__(self):
        for name in ("eta_a1", "eta_a2", "eta_b1", "eta_b2"):
            v = float(getattr(self, name))
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
            object.__setattr__(self, name, v)

    @classmethod
    def equal_eta(cls, eta: float) -> "LossConfig":
        return cls(eta, eta, eta, eta)

    @property
    def equal(self) -> bool:
        return self.eta_a1 == self.eta_a2 == self.eta_b1 == self.eta_b2

    @property
    def equal_within_sides(self) -> bool:
        """eta_a1 == eta_a2 and eta_b1 == eta_b2: each side's loss commutes with its analyzer."""
        return self.eta_a1 == self.eta_a2 and self.eta_b1 == self.eta_b2

    def etas(self) -> tuple[float, float, float, float]:
        return (self.eta_a1, self.eta_a2, self.eta_b1, self.eta_b2)


@dataclass(frozen=True)
class ModeOperatorTerm:
    """One |ket><bra| term of a decohered single-mode operator."""

    ket: int
    bra: int
    value: float


@dataclass(frozen=True)
class SpinOperatorTerm:
    """One |ket><bra| term of a decohered two-mode (spin) operator."""

    ket: SpinLabel
    bra: SpinLabel
    value: float


def _log_factorial(n: np.ndarray) -> np.ndarray:
    """ln n! for integers n >= 0: a table lookup, lgamma past the table."""
    if n.size and n.max() >= _LGF.size:
        return np.vectorize(math.lgamma, otypes=[float])(n + 1.0)
    return _LGF[n]


def _lc(n: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Vectorized ln C(n, k): -inf outside 0 <= k <= n (or n < 0)."""
    valid = (n >= 0) & (k >= 0) & (k <= n)
    nn = np.where(valid, n, 0)
    kk = np.where(valid, k, 0)
    out = _log_factorial(nn) - _log_factorial(kk) - _log_factorial(nn - kk)
    return np.where(valid, out, _NEG_INF)


def _pow_log(base: float, e: np.ndarray) -> np.ndarray:
    """Log-domain contribution of base**e for base >= 0 with 0**0 = 1."""
    if base > 0.0:
        return e * math.log(base)
    return np.where(e == 0, 0.0, _NEG_INF)


def _pow_log1m(eta: float, e: np.ndarray) -> np.ndarray:
    """Log-domain contribution of (1-eta)**e."""
    if eta < 1.0:
        return e * math.log1p(-eta)
    return np.where(e == 0, 0.0, _NEG_INF)


def log_thinning(n, k, eta: float) -> np.ndarray:
    """ln[C(n, k) eta^k (1-eta)^(n-k)], elementwise over integer arrays n, k.

    The probability that loss eta leaves k of n photons; -inf outside
    0 <= k <= n, and 0^0 = 1 at eta = 0 and eta = 1.
    """
    n, k = np.asarray(n), np.asarray(k)
    return _lc(n, k) + _pow_log(eta, k) + _pow_log1m(eta, n - k)


def log_weight_table(ts: int, tso: int, eta_up: float, eta_dn: float) -> np.ndarray:
    """Log loss weights L[w, mu] of one mode pair, from spin ts/2 to spin tso/2.

    Row w is the source state with w photons in the up mode and ts - w in
    the down mode; column mu keeps mu up and tso - mu down photons.
    exp(L[w, mu]) is the probability of that transition, and the
    coherence |w><w + dw| reaches |mu><mu + dw| with weight
    exp((L[w, mu] + L[w + dw, mu + dw]) / 2) = h[w, mu] h[w + dw, mu + dw],
    h = exp(L / 2), since both carry the same lost-photon counts.  The lossy
    engine caches h per (ts, tso, eta_up, eta_dn) and builds its kernels from
    those products.
    """
    n_up = np.arange(ts + 1)[:, None]
    k_up = np.arange(tso + 1)[None, :]
    return log_thinning(n_up, k_up, eta_up) + log_thinning(ts - n_up, tso - k_up, eta_dn)


def decohere_fock(n: int, eta: float) -> dict[int, float]:
    """Output photon-number distribution of |n> after loss eta.

    p(k) = C(n,k) eta^k (1-eta)^(n-k); sums to one.
    """
    if n < 0:
        raise ValueError("photon number must be nonnegative")
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    p = np.exp(log_thinning(n, np.arange(n + 1), eta))
    return {k: float(v) for k, v in enumerate(p)}


def decohere_single(n: int, n_prime: int, eta: float) -> list[ModeOperatorTerm]:
    """Decohered single-mode operator |n><n'| as a list of weighted terms.

    Iterates the surviving ket count k (an integer), which fixes the bra
    count k + n' - n; the shared number of lost photons is n - k.
    """
    if n < 0 or n_prime < 0:
        raise ValueError("photon numbers must be nonnegative")
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    k = np.arange(max(0, n - n_prime), n + 1)
    kp = k + n_prime - n
    lw = 0.5 * (log_thinning(n, k, eta) + log_thinning(n_prime, kp, eta))
    return [
        ModeOperatorTerm(ket=a, bra=b, value=math.exp(v))
        for a, b, v in zip(k.tolist(), kp.tolist(), lw.tolist())
        if v > _NEG_INF
    ]


def min_output_spin(s, m, s_p, m_p) -> HalfInt:
    """Case-split lower bound for the surviving spin sigma.

    Determined by comparing the mode occupations n1 vs n2 on the ket and the
    bra, i.e. by the signs of m and m'; clamped below at zero.  This bound
    never excludes a term with nonzero binomial support, but for mixed-sign
    labels the true support can start higher -- the zero-binomial guard is
    authoritative, the bound only saves loop iterations.
    """
    ts, tm = HalfInt.of(s).twice, HalfInt.of(m).twice
    tsp, tmp = HalfInt.of(s_p).twice, HalfInt.of(m_p).twice
    if tm >= 0 and tmp >= 0:
        t = ts - tsp
    elif tm <= 0 and tmp <= 0:
        t = 0
    elif tm >= 0 and tmp <= 0:
        t = (ts - tsp + tm - tmp) // 2
    else:
        t = (ts - tsp - tm + tmp) // 2
    return HalfInt(max(0, t))


def decohere_spin_op(s, m, s_p, m_p, eta1: float, eta2: float) -> list[SpinOperatorTerm]:
    """Decohered spin-basis operator |s m><s' m'| under per-mode losses.

    Returns the double sum over surviving labels: kets |sigma, mu>, bras
    <sigma + s'-s, mu + m'-m|, with weights
    eta1^(sigma+mu+(s'-s+m'-m)/2) * eta2^(sigma-mu+(s'-s-m'+m)/2)
    * (1-eta1)^(s+m-sigma-mu) * (1-eta2)^(s-m-sigma+mu)
    times the four square-rooted binomials: exp of the half-sum of the ket
    and bra rows of ``log_weight_table``.  Terms whose binomials fall out of
    range are omitted.
    """
    ts, tm = HalfInt.of(s).twice, HalfInt.of(m).twice
    tsp, tmp = HalfInt.of(s_p).twice, HalfInt.of(m_p).twice
    if not 0.0 <= eta1 <= 1.0 or not 0.0 <= eta2 <= 1.0:
        raise ValueError("efficiencies must lie in [0, 1]")
    # occupations of the two modes for ket and bra labels
    n_up, n_dn = (ts + tm) // 2, (ts - tm) // 2
    np_up, np_dn = (tsp + tmp) // 2, (tsp - tmp) // 2
    if min(n_up, n_dn, np_up, np_dn) < 0:
        raise ValueError("invalid spin labels")
    terms: list[SpinOperatorTerm] = []
    t_lo = min_output_spin(s, m, s_p, m_p).twice
    for tsig in range(t_lo, ts + 1):  # sigma in half-integer steps
        tsig_p = tsig + tsp - ts
        # surviving up counts k (ket) and k + np_up - n_up (bra) on both tables
        k_up = np.arange(max(0, n_up - np_up), min(tsig, tsig_p + n_up - np_up) + 1)
        if not k_up.size:
            continue
        ket = log_weight_table(ts, tsig, eta1, eta2)[n_up, k_up]
        bra = log_weight_table(tsp, tsig_p, eta1, eta2)[np_up, k_up + np_up - n_up]
        for k, lw in zip(k_up.tolist(), (0.5 * (ket + bra)).tolist()):
            if lw == _NEG_INF:
                continue
            kp = k + np_up - n_up
            terms.append(
                SpinOperatorTerm(
                    ket=SpinLabel(HalfInt(tsig), HalfInt(2 * k - tsig)),
                    bra=SpinLabel(HalfInt(tsig_p), HalfInt(2 * kp - tsig_p)),
                    value=math.exp(lw),
                )
            )
    return terms
