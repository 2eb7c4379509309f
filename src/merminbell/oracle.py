"""Brute-force four-mode Fock simulation used to validate the closed forms.

Everything here works directly on photon occupation amplitudes of the four
optical modes (a1, a2, b1, b2): explicit state preparation, Kraus-sum loss
channels, beamsplitter analyzer unitaries, and photon-counting readout.  No
spin algebra is shared with the analytic modules; agreement between the two
routes is the package's core correctness check.  A loss Kraus operator sends
each basis state to exactly one basis state (n -> n - k on its mode), so it
is applied as a weighted index map, not a dense product; the density matrix
is real unless the input state has a complex amplitude.

The working basis holds every occupation with per-side photon totals up to
the totals present in the initial state, which is closed under both loss
(totals decrease) and analyzer rotations (totals conserved), so channels
stay exactly trace preserving despite the truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .loss import LossConfig
from .lossy import JointOutcomeDistribution
from .numerics import HalfInt

__all__ = [
    "TruncatedFockState",
    "DensityMatrixLite",
    "build_epr2",
    "apply_loss",
    "apply_analyzer",
    "measure_joint",
    "simulate_joint",
]

_MODE_POS = {"a1": 0, "a2": 1, "b1": 2, "b2": 3}


@dataclass
class TruncatedFockState:
    """Pure four-mode state as a sparse map of occupation amplitudes."""

    cutoff: int
    amplitudes: dict[tuple[int, int, int, int], complex]

    def norm_sq(self) -> float:
        return sum(abs(a) ** 2 for a in self.amplitudes.values())

    @property
    def truncation_deficit(self) -> float:
        return max(0.0, 1.0 - self.norm_sq())


def build_epr2(
    r1: float,
    r2: float,
    cutoff: int,
    pi_shift_on_a2: bool = True,
    sector_max=None,
) -> TruncatedFockState:
    """Twin two-mode-squeezed state, photon numbers pairwise correlated.

    Amplitude tanh(r1)^n1 tanh(r2)^n2 / (cosh(r1) cosh(r2)) on occupation
    (n1, n2, n1, n2), with the extra sign (-1)^n2 when the pi shift on the
    a2 path is applied.  ``sector_max`` additionally restricts to per-side
    spin sectors (n1+n2)/2 <= sector_max, which the analytic path can match
    exactly.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    t_sec = None if sector_max is None else HalfInt.of(sector_max).twice
    amp: dict[tuple[int, int, int, int], float] = {}
    norm = math.cosh(r1) * math.cosh(r2)
    for n1 in range(cutoff + 1):
        for n2 in range(cutoff + 1):
            if t_sec is not None and n1 + n2 > t_sec:
                continue
            a = (math.tanh(r1) ** n1) * (math.tanh(r2) ** n2) / norm
            if a == 0.0:
                continue
            if pi_shift_on_a2 and n2 % 2:
                a = -a
            amp[(n1, n2, n1, n2)] = a
    return TruncatedFockState(cutoff=cutoff, amplitudes=amp)


class DensityMatrixLite:
    """Dense density matrix over an explicit four-mode occupation basis."""

    def __init__(self, basis: list[tuple[int, int, int, int]], rho: np.ndarray):
        self.basis = basis
        self.index = {t: i for i, t in enumerate(basis)}
        self.rho = rho

    @classmethod
    def from_state(cls, state: TruncatedFockState) -> "DensityMatrixLite":
        na = max((n1 + n2 for (n1, n2, _, _) in state.amplitudes), default=0)
        nb = max((n3 + n4 for (_, _, n3, n4) in state.amplitudes), default=0)
        basis = [
            (n1, n2, n3, n4)
            for n1 in range(na + 1)
            for n2 in range(na + 1 - n1)
            for n3 in range(nb + 1)
            for n4 in range(nb + 1 - n3)
        ]
        index = {t: i for i, t in enumerate(basis)}
        amps = np.asarray(list(state.amplitudes.values()))
        psi = np.zeros(len(basis), dtype=np.result_type(amps, float))
        for t, a in state.amplitudes.items():
            psi[index[t]] = a
        return cls(basis, np.outer(psi, psi.conj()))

    def entry(self, ket: tuple, bra: tuple) -> complex:
        return self.rho[self.index[tuple(ket)], self.index[tuple(bra)]]

    def trace(self) -> float:
        return float(np.trace(self.rho).real)

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.rho - self.rho.conj().T)))


def _as_dm(obj) -> DensityMatrixLite:
    if isinstance(obj, TruncatedFockState):
        return DensityMatrixLite.from_state(obj)
    if isinstance(obj, DensityMatrixLite):
        return obj
    raise TypeError("expected a TruncatedFockState or DensityMatrixLite")


def apply_loss(obj, mode: str, eta: float) -> DensityMatrixLite:
    """Kraus-sum loss channel on one mode: k photons lost with amplitude
    sqrt(C(n,k)) eta^((n-k)/2) (1-eta)^(k/2).

    The k-photon Kraus operator sends each state with n >= k to its copy with
    n - k photons, so K rho K^T is a weighted copy of a sub-block of rho.
    """
    if mode not in _MODE_POS:
        raise ValueError(f"unknown mode {mode!r}")
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    dm = _as_dm(obj)
    occ = np.array(dm.basis, dtype=np.int64).reshape(-1, 4)
    n = occ[:, _MODE_POS[mode]]
    # occupations as mixed-radix keys: losing k photons subtracts k * place
    places = (int(occ.max()) + 1) ** np.arange(3, -1, -1, dtype=np.int64)
    keys = occ @ places
    order = np.argsort(keys)
    new = np.zeros_like(dm.rho)
    for k in range(n.max() + 1 if eta < 1.0 else 1):
        table = [0.0] * k + [
            math.sqrt(math.comb(m, k)) * eta ** ((m - k) / 2.0) * (1.0 - eta) ** (k / 2.0)
            for m in range(k, n.max() + 1)
        ]
        w = np.array(table)[n]
        cols = np.flatnonzero(w)
        target = keys[cols] - k * places[_MODE_POS[mode]]
        rows = order[np.searchsorted(keys, target, sorter=order) % len(keys)]
        if not np.array_equal(keys[rows], target):
            raise ValueError("basis is not closed under photon loss")
        new[np.ix_(rows, rows)] += w[cols, None] * dm.rho[np.ix_(cols, cols)] * w[None, cols]
    return DensityMatrixLite(dm.basis, new)


@lru_cache(maxsize=None)
def _rotation_coeffs(nf: int, ng: int, angle: float) -> tuple[tuple[int, int, float], ...]:
    """Amplitudes of U|nf, ng> for the two-mode analyzer rotation.

    U maps the creation operators as f+ -> cos(t/2) f+ - sin(t/2) g+ and
    g+ -> sin(t/2) f+ + cos(t/2) g+, so detector f sees the f-mode rotated
    toward g by the analyzer angle.
    """
    c = math.cos(angle / 2.0)
    s = math.sin(angle / 2.0)
    fact = math.factorial
    acc: dict[tuple[int, int], float] = {}
    for i in range(nf + 1):
        for j in range(ng + 1):
            kf = i + j
            kg = nf + ng - kf
            w = (
                math.comb(nf, i)
                * math.comb(ng, j)
                * c**i
                * (-s) ** (nf - i)
                * s**j
                * c ** (ng - j)
                * math.sqrt(fact(kf) * fact(kg) / (fact(nf) * fact(ng)))
            )
            acc[(kf, kg)] = acc.get((kf, kg), 0.0) + w
    return tuple((kf, kg, w) for (kf, kg), w in acc.items() if w != 0.0)


def apply_analyzer(obj, side: str, angle: float) -> DensityMatrixLite:
    """Beamsplitter analyzer on one side; photon number per side conserved.

    Alice's rotation treats a1 as the leading mode; Bob's treats b2 as the
    leading mode, matching his reflected spin convention.
    """
    if side not in ("A", "B"):
        raise ValueError("side must be 'A' or 'B'")
    dm = _as_dm(obj)
    lead, other = (0, 1) if side == "A" else (3, 2)
    u = np.zeros((len(dm.basis), len(dm.basis)))
    for j, t in enumerate(dm.basis):
        for kf, kg, w in _rotation_coeffs(t[lead], t[other], float(angle)):
            out = list(t)
            out[lead], out[other] = kf, kg
            u[dm.index[tuple(out)], j] += w
    return DensityMatrixLite(dm.basis, u @ dm.rho @ u.T)


def _bob_projection(n_b1: int, n_b2: int) -> int:
    """Twice Bob's spin projection; his convention is m = (n_b2 - n_b1)/2."""
    return n_b2 - n_b1


def measure_joint(dm: DensityMatrixLite) -> JointOutcomeDistribution:
    """Photon-counting readout: diagonal in the occupation basis mapped to
    (s_a, m_a, s_b, m_b) labels."""
    entries: dict[tuple[HalfInt, HalfInt, HalfInt, HalfInt], float] = {}
    t_max = 0
    for i, (n1, n2, n3, n4) in enumerate(dm.basis):
        p = float(dm.rho[i, i].real)
        if p == 0.0:
            continue
        key = (
            HalfInt(n1 + n2),
            HalfInt(n1 - n2),
            HalfInt(n3 + n4),
            HalfInt(_bob_projection(n3, n4)),
        )
        entries[key] = entries.get(key, 0.0) + p
        t_max = max(t_max, n1 + n2, n3 + n4)
    total = sum(entries.values())
    return JointOutcomeDistribution(
        entries=entries,
        tail_bound=max(0.0, 1.0 - total),
        s_cutoff_used=HalfInt(t_max),
        converged=True,
    )


def simulate_joint(
    r: float,
    loss: LossConfig,
    alpha: float,
    beta: float,
    cutoff: int,
    sector_max=None,
    pi_shift: bool = True,
    r2: float | None = None,
) -> JointOutcomeDistribution:
    """Full pipeline: source, pi shift, four loss channels, analyzers, readout."""
    state = build_epr2(r, r if r2 is None else r2, cutoff, pi_shift, sector_max)
    dm = DensityMatrixLite.from_state(state)
    for mode, eta in zip(("a1", "a2", "b1", "b2"), loss.etas()):
        dm = apply_loss(dm, mode, eta)
    dm = apply_analyzer(dm, "A", alpha)
    dm = apply_analyzer(dm, "B", beta)
    return measure_joint(dm)
