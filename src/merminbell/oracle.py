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
        states_a, states_b = ([(i, j) for i in range(n + 1) for j in range(n + 1 - i)] for n in (na, nb))
        basis = [a + b for a in states_a for b in states_b]
        index = {t: i for i, t in enumerate(basis)}
        amps = np.asarray(list(state.amplitudes.values()))
        psi = np.zeros(len(basis), dtype=np.result_type(amps, float))
        psi[[index[t] for t in state.amplitudes]] = amps
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
    leading mode, matching his reflected spin convention.  The basis must be
    the A-major product of per-side bases that ``from_state`` builds, so the
    unitary is one side's rotation times the identity on the other side.
    """
    if side not in ("A", "B"):
        raise ValueError("side must be 'A' or 'B'")
    dm = _as_dm(obj)
    states_a = list(dict.fromkeys(t[:2] for t in dm.basis))
    states_b = list(dict.fromkeys(t[2:] for t in dm.basis))
    if dm.basis != [a + b for a in states_a for b in states_b]:
        raise ValueError("basis is not an A-major product of per-side bases")
    states, lead = (states_a, 0) if side == "A" else (states_b, 1)
    index = {t: i for i, t in enumerate(states)}
    rot = np.zeros((len(states), len(states)))
    for j, t in enumerate(states):
        for kf, kg, w in _rotation_coeffs(t[lead], t[1 - lead], float(angle)):
            out = (kf, kg) if lead == 0 else (kg, kf)
            if out not in index:
                raise ValueError("basis is not closed under the analyzer rotation")
            rot[index[out], j] += w
    u = np.kron(rot, np.eye(len(states_b))) if side == "A" else np.kron(np.eye(len(states_a)), rot)
    return DensityMatrixLite(dm.basis, u @ dm.rho @ u.T)


def _bob_projection(n_b1, n_b2):
    """Twice Bob's spin projection; his convention is m = (n_b2 - n_b1)/2."""
    return n_b2 - n_b1


def measure_joint(dm: DensityMatrixLite) -> JointOutcomeDistribution:
    """Photon-counting readout: the diagonal in the occupation basis, one
    block per per-side photon-total pair (2s_a, 2s_b), indexed by the
    up-mode counts n_a1 and (2s_b + 2m_b)/2."""
    occ = np.array(dm.basis, dtype=np.int64).reshape(-1, 4)
    p = dm.rho.diagonal().real
    occ, p = occ[p != 0.0], p[p != 0.0]
    tsa, tsb = occ[:, 0] + occ[:, 1], occ[:, 2] + occ[:, 3]
    col = (tsb + _bob_projection(occ[:, 2], occ[:, 3])) // 2
    blocks: dict[tuple[int, int], np.ndarray] = {}
    for ta, tb in sorted(set(zip(tsa.tolist(), tsb.tolist()))):
        sel = (tsa == ta) & (tsb == tb)
        blocks[(ta, tb)] = np.zeros((ta + 1, tb + 1))
        np.add.at(blocks[(ta, tb)], (occ[sel, 0], col[sel]), p[sel])
    return JointOutcomeDistribution(
        blocks=blocks,
        tail_bound=max(0.0, 1.0 - sum(p.tolist())),
        s_cutoff_used=HalfInt(int(max(tsa.max(), tsb.max())) if p.size else 0),
        converged=True,
    )


def simulate_joint(
    r: float,
    loss: LossConfig,
    alpha: float,
    beta: float,
    cutoff: int,
    sector_max=None,
) -> JointOutcomeDistribution:
    """Full pipeline: source, pi shift, four loss channels, analyzers, readout."""
    dm = DensityMatrixLite.from_state(build_epr2(r, r, cutoff, sector_max=sector_max))
    for mode, eta in zip(("a1", "a2", "b1", "b2"), loss.etas()):
        dm = apply_loss(dm, mode, eta)
    dm = apply_analyzer(dm, "A", alpha)
    dm = apply_analyzer(dm, "B", beta)
    return measure_joint(dm)
