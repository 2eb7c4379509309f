"""Brute-force four-mode Fock simulation used to validate the closed forms.

Everything here works directly on photon occupation amplitudes of the four
optical modes (a1, a2, b1, b2): explicit state preparation, Kraus-sum loss
channels, beamsplitter analyzer unitaries, and photon-counting readout.  No
spin algebra is shared with the analytic modules; agreement between the two
routes is the package's core correctness check.  The density matrix is real
unless the input state has a complex amplitude.

The working basis is the A-major product of per-side bases, each holding
every occupation with that side's photon total up to the total present in
the initial state.  It is closed under both loss (totals decrease) and
analyzer rotations (totals conserved), so channels stay exactly trace
preserving despite the truncation.

Every channel acts on one side, so it views the dim x dim density matrix as
a tensor with a ket and a bra axis per side and touches only its own side's
two axes.  What depends only on a side's basis is built once and cached,
read-only and in bounded caches: the analyzer's side-sized rotation block
per (side basis, leading mode, angle), per (side basis, mode) the index
maps that send each side state to its copy with k photons fewer, and per
basis the readout's block cells.  A loss
channel is then a scale of the side's axes by eta^(n/2) (no photon lost)
plus, per k >= 1, one gathered and weighted sub-block added at the lowered
indices; an analyzer is, per state of the other side's ket, one side-sized
product on the ket axis and one batch of them on the bra axis.  No
temporary is larger than the density matrix, no dim x dim product is
formed, and every product stays small enough that BLAS keeps it on the
calling thread.  ``simulate_joint`` keeps the lossy state of the last
setting, since the source and the loss channels do not depend on the
analyzer angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

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
        self.rho = rho

    @cached_property
    def index(self) -> dict[tuple[int, int, int, int], int]:
        return {t: i for i, t in enumerate(self.basis)}

    @cached_property
    def sides(self) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
        """Alice's and Bob's bases, of which ``basis`` must be the A-major product.

        Derived at most once per basis: ``from_state`` sets them and every
        channel hands them on.  ValueError if ``basis`` is no such product.
        """
        states_a = tuple(dict.fromkeys(t[:2] for t in self.basis))
        states_b = tuple(dict.fromkeys(t[2:] for t in self.basis))
        if self.basis != [a + b for a in states_a for b in states_b]:
            raise ValueError("basis is not an A-major product of per-side bases")
        return states_a, states_b

    def _with_rho(self, rho: np.ndarray) -> "DensityMatrixLite":
        """``rho`` over this basis, sharing its per-side bases."""
        out = DensityMatrixLite(self.basis, rho)
        out.sides = self.sides
        return out

    @classmethod
    def from_state(cls, state: TruncatedFockState) -> "DensityMatrixLite":
        na = max((n1 + n2 for (n1, n2, _, _) in state.amplitudes), default=0)
        nb = max((n3 + n4 for (_, _, n3, n4) in state.amplitudes), default=0)
        states_a, states_b = (tuple((i, j) for i in range(n + 1) for j in range(n + 1 - i)) for n in (na, nb))
        basis = [a + b for a in states_a for b in states_b]
        index = {t: i for i, t in enumerate(basis)}
        amps = np.asarray(list(state.amplitudes.values()))
        psi = np.zeros(len(basis), dtype=np.result_type(amps, float))
        psi[[index[t] for t in state.amplitudes]] = amps
        dm = cls(basis, np.outer(psi, psi.conj()))
        dm.sides = states_a, states_b
        return dm

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


def _side_view(t: np.ndarray, side: int) -> np.ndarray:
    """The (A ket, B ket, A bra, B bra) tensor as a view with axes (other ket,
    other bra, side ket, side bra), so that ``side`` (0 for A, 1 for B) owns
    the last two axes."""
    return t.transpose(1, 3, 0, 2) if side == 0 else t.transpose(0, 2, 1, 3)


def apply_loss(obj, mode: str, eta: float) -> DensityMatrixLite:
    """Kraus-sum loss channel on one mode: k photons lost with amplitude
    sqrt(C(n,k)) eta^((n-k)/2) (1-eta)^(k/2).

    The k-photon Kraus operator sends each state of the mode's side with
    n >= k to its copy with n - k photons, so K rho K^T is a weighted copy of
    a sub-block along that side's two axes.  The basis must be the A-major
    product of per-side bases that ``from_state`` builds.
    """
    if mode not in _MODE_POS:
        raise ValueError(f"unknown mode {mode!r}")
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    dm = _as_dm(obj)
    sides = dm.sides
    if eta == 1.0:  # only the k = 0 operator, the identity
        return dm._with_rho(dm.rho.copy())
    side, pos = divmod(_MODE_POS[mode], 2)
    n, maps = _lowering_maps(sides[side], pos)
    rho = dm.rho.reshape(len(sides[0]), len(sides[1]), len(sides[0]), len(sides[1]))
    # k = 0 keeps every state: scale the side's ket and bra axes by eta^(n/2)
    w = _loss_weights(eta, 0, len(maps))[n]
    new = rho * _along(w, side)
    new *= _along(w, side + 2)
    src, dst = _side_view(rho, side), _side_view(new, side)
    for k, (cols, rows) in enumerate(maps, start=1):
        w = _loss_weights(eta, k, len(maps))[n[cols]]
        part = src[..., cols[:, None], cols]
        part *= w[:, None]
        part *= w
        dst[..., rows[:, None], rows] += part
    return dm._with_rho(new.reshape(dm.rho.shape))


def _along(w: np.ndarray, axis: int) -> np.ndarray:
    """``w`` shaped to broadcast along one axis of the four-axis tensor."""
    return w.reshape([-1 if ax == axis else 1 for ax in range(4)])


def _loss_weights(eta: float, k: int, n_max: int) -> np.ndarray:
    """Amplitude of losing k photons from n, for n = 0 .. n_max (0 below k)."""
    return np.array([0.0] * k + [
        math.sqrt(math.comb(m, k)) * eta ** ((m - k) / 2.0) * (1.0 - eta) ** (k / 2.0)
        for m in range(k, n_max + 1)
    ])


@lru_cache(maxsize=32)
def _lowering_maps(states: tuple, pos: int) -> tuple[np.ndarray, tuple[tuple[np.ndarray, np.ndarray], ...]]:
    """The mode's photon count per side state, and for k = 1, 2, .. the
    (cols, rows) pair of side-state indices that losing k photons from the
    mode at ``pos`` sends cols[i] to rows[i].  Read-only arrays."""
    index = {t: i for i, t in enumerate(states)}
    counts = [t[pos] for t in states]
    n = np.array(counts, dtype=np.intp)
    maps = []
    for k in range(1, max(counts, default=0) + 1):
        cols = np.flatnonzero(n >= k)
        lowered = [states[c][:pos] + (states[c][pos] - k,) + states[c][pos + 1 :] for c in cols]
        if not all(t in index for t in lowered):
            raise ValueError("basis is not closed under photon loss")
        rows = np.array([index[t] for t in lowered], dtype=np.intp)
        maps.append((cols, rows))
    for a in (n, *(a for pair in maps for a in pair)):
        a.setflags(write=False)
    return n, tuple(maps)


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


@lru_cache(maxsize=64)
def _rotation_block(states: tuple, lead: int, angle: float) -> np.ndarray:
    """The analyzer unitary on one side's basis, leading mode at ``lead``.
    Read-only."""
    index = {t: i for i, t in enumerate(states)}
    rot = np.zeros((len(states), len(states)))
    for j, t in enumerate(states):
        for kf, kg, w in _rotation_coeffs(t[lead], t[1 - lead], angle):
            out = (kf, kg) if lead == 0 else (kg, kf)
            if out not in index:
                raise ValueError("basis is not closed under the analyzer rotation")
            rot[index[out], j] += w
    rot.setflags(write=False)
    return rot


def apply_analyzer(obj, side: str, angle: float) -> DensityMatrixLite:
    """Beamsplitter analyzer on one side; photon number per side conserved.

    Alice's rotation treats a1 as the leading mode; Bob's treats b2 as the
    leading mode, matching his reflected spin convention.  The basis must be
    the A-major product of per-side bases that ``from_state`` builds, so the
    unitary is one side's rotation block acting on that side's two axes.
    """
    if side not in ("A", "B"):
        raise ValueError("side must be 'A' or 'B'")
    dm = _as_dm(obj)
    sides = dm.sides
    lead = 0 if side == "A" else 1
    rot = _rotation_block(sides[lead], lead, float(angle))
    da, db = len(sides[0]), len(sides[1])
    dim = da * db
    rho = dm.rho.reshape(da, db, da, db)
    new = np.empty(rho.shape, dtype=np.result_type(rot, rho))
    # rot rho rot^T one slice of the other side's ket at a time: the ket
    # product is one side-sized product, the bra product one batch of them,
    # so BLAS stays on the calling thread and no temporary outgrows a slice
    if lead == 0:
        for b in range(db):
            half = rot @ rho[:, b].reshape(da, dim)
            np.matmul(rot, half.reshape(da, da, db), out=new[:, b])
    else:
        for a in range(da):
            half = rot @ rho[a].reshape(db, dim)
            np.matmul(half.reshape(dim, db), rot.T, out=new[a].reshape(dim, db))
    return dm._with_rho(new.reshape(dm.rho.shape))


def _bob_projection(n_b1, n_b2):
    """Twice Bob's spin projection; his convention is m = (n_b2 - n_b1)/2."""
    return n_b2 - n_b1


def measure_joint(dm: DensityMatrixLite) -> JointOutcomeDistribution:
    """Photon-counting readout: the diagonal in the occupation basis, one
    block per per-side photon-total pair (2s_a, 2s_b), indexed by the
    up-mode counts n_a1 and (2s_b + 2m_b)/2.  A pair whose probabilities
    are all zero has no block."""
    p = dm.rho.diagonal().real
    blocks: dict[tuple[int, int], np.ndarray] = {}
    for (ta, tb), at, cells in _readout_cells(tuple(dm.basis)):
        q = p[at]
        if q.any():
            blocks[(ta, tb)] = np.zeros((ta + 1, tb + 1))
            blocks[(ta, tb)][cells] = q + 0.0  # + 0.0 turns -0.0 into 0.0
    return JointOutcomeDistribution(
        blocks=blocks,
        tail_bound=max(0.0, 1.0 - sum(p.tolist())),
        s_cutoff_used=HalfInt(max((max(k) for k in blocks), default=0)),
        converged=True,
    )


@lru_cache(maxsize=8)
def _readout_cells(basis: tuple) -> tuple[tuple[tuple[int, int], np.ndarray, tuple[np.ndarray, np.ndarray]], ...]:
    """Per photon-total pair (2s_a, 2s_b), in sorted order: the positions in
    ``basis`` of its states and their (row, column) cells in its block.
    Read-only arrays."""
    occ = np.array(basis, dtype=np.int64).reshape(-1, 4)
    tsa, tsb = occ[:, 0] + occ[:, 1], occ[:, 2] + occ[:, 3]
    col = (tsb + _bob_projection(occ[:, 2], occ[:, 3])) // 2
    out = []
    for ta, tb in sorted(set(zip(tsa.tolist(), tsb.tolist()))):
        at = np.flatnonzero((tsa == ta) & (tsb == tb))
        cells = occ[at, 0], col[at]
        for a in (at, *cells):
            a.setflags(write=False)
        out.append(((ta, tb), at, cells))
    return tuple(out)


def simulate_joint(
    r: float,
    loss: LossConfig,
    alpha: float,
    beta: float,
    cutoff: int,
    sector_max=None,
) -> JointOutcomeDistribution:
    """Full pipeline: source, pi shift, four loss channels, analyzers, readout."""
    s_max = None if sector_max is None else HalfInt.of(sector_max)
    dm = apply_analyzer(_lossy_state(r, loss.etas(), cutoff, s_max), "A", alpha)
    dm = apply_analyzer(dm, "B", beta)
    return measure_joint(dm)


@lru_cache(maxsize=1)
def _lossy_state(r: float, etas: tuple[float, ...], cutoff: int, sector_max) -> DensityMatrixLite:
    """Source, pi shift and the four loss channels: the angle-independent
    part of ``simulate_joint``, kept for the last setting.  Its ``rho`` is
    shared by every later call, so it is read-only."""
    dm = DensityMatrixLite.from_state(build_epr2(r, r, cutoff, sector_max=sector_max))
    for mode, eta in zip(("a1", "a2", "b1", "b2"), etas):
        dm = apply_loss(dm, mode, eta)
    dm.rho.setflags(write=False)
    return dm
