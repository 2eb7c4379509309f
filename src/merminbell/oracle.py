"""Brute-force four-mode Fock simulation used to validate the closed forms.

Everything here works directly on photon occupation amplitudes of the four
optical modes (a1, a2, b1, b2): explicit state preparation, Kraus-sum loss
channels, beamsplitter analyzer unitaries, and photon-counting readout.  No
spin algebra is shared with the analytic modules; agreement between the two
routes is the package's core correctness check.

The source is a pure state, and a loss channel only splits each state into
orthogonal Kraus branches, one per number of lost photons, that are never
recombined before readout.  So a lossy state is kept as its branches:
``psi[b, i_A, i_B]`` holds branch b's amplitude on the product of Alice's
side state i_A and Bob's side state i_B, and the density matrix is
sum_b psi_b psi_b^dagger, never formed.  Amplitudes are real unless the
input state has a complex one.  Each side's basis holds every occupation
with that side's photon total up to the total present in the initial state;
it is closed under both loss (totals decrease) and analyzer rotations
(totals conserved), so channels stay exactly trace preserving despite the
truncation.

Every channel acts on one side's axis of ``psi``.  What depends only on a
side's basis is built once and cached, read-only and in bounded caches: the
analyzer's side-sized rotation block per (side basis, leading mode, angle),
per (side basis, mode) the index maps that send each side state to its copy
with k photons fewer, and per pair of side bases the readout's block cells.
A loss channel gives every branch one weighted copy per k, gathered through
the lowering map along the side's axis, and drops the copies that are all
zero; an analyzer is one side-sized product per branch, small enough that
BLAS keeps it on the calling thread; the readout sums |psi|^2 over branches.
``simulate_joint`` keeps the lossy state of the last setting, since the
source and the loss channels do not depend on the analyzer angles.
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
    "KrausBranches",
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


class KrausBranches:
    """Mixed four-mode state as orthogonal Kraus branches of a pure state.

    ``sides`` are Alice's and Bob's bases of (n1, n2) occupations and
    ``psi[b, i_A, i_B]`` the amplitude of branch b on side states i_A, i_B;
    the density matrix is sum_b psi_b psi_b^dagger.
    """

    def __init__(self, sides: tuple[tuple[tuple[int, int], ...], ...], psi: np.ndarray):
        self.sides = sides
        self.psi = psi

    @cached_property
    def basis(self) -> list[tuple[int, int, int, int]]:
        """The four-mode product basis, A-major: the order of ``psi[b].ravel()``."""
        return [a + b for a in self.sides[0] for b in self.sides[1]]

    @classmethod
    def from_state(cls, state: TruncatedFockState) -> "KrausBranches":
        na = max((n1 + n2 for (n1, n2, _, _) in state.amplitudes), default=0)
        nb = max((n3 + n4 for (_, _, n3, n4) in state.amplitudes), default=0)
        sides = tuple(tuple((i, j) for i in range(n + 1) for j in range(n + 1 - i)) for n in (na, nb))
        index_a, index_b = ({t: i for i, t in enumerate(states)} for states in sides)
        amps = np.asarray(list(state.amplitudes.values()))
        psi = np.zeros((1, len(sides[0]), len(sides[1])), dtype=np.result_type(amps, float))
        for t, a in zip(state.amplitudes, amps):
            psi[0, index_a[t[:2]], index_b[t[2:]]] = a
        return cls(sides, psi)


def _as_branches(obj) -> KrausBranches:
    if isinstance(obj, TruncatedFockState):
        return KrausBranches.from_state(obj)
    if isinstance(obj, KrausBranches):
        return obj
    raise TypeError("expected a TruncatedFockState or KrausBranches")


def apply_loss(obj, mode: str, eta: float) -> KrausBranches:
    """Kraus-sum loss channel on one mode: k photons lost with amplitude
    sqrt(C(n,k)) eta^((n-k)/2) (1-eta)^(k/2).

    The k-photon Kraus operator sends each state of the mode's side with
    n >= k to its copy with n - k photons, so it turns every branch into a
    weighted copy gathered along that side's axis.  Copies are made only up
    to the largest n that a nonzero amplitude holds, and copies that are all
    zero are dropped.
    """
    if mode not in _MODE_POS:
        raise ValueError(f"unknown mode {mode!r}")
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    state = _as_branches(obj)
    if eta == 1.0:  # only the k = 0 operator, the identity
        return KrausBranches(state.sides, state.psi.copy())
    side, pos = divmod(_MODE_POS[mode], 2)
    n, maps = _lowering_maps(state.sides[side], pos)
    # the side's axis last, in the input and in each k's copies
    src = state.psi.swapaxes(1, 2) if side == 0 else state.psi
    # no k above the largest count the mode holds where psi is nonzero has a nonzero copy
    k_max = int(n[state.psi.any(axis=(0, 2 - side))].max(initial=0))
    out = np.zeros((k_max + 1, *state.psi.shape), dtype=state.psi.dtype)
    dst = out.swapaxes(2, 3) if side == 0 else out
    np.multiply(src, _loss_weights(eta, 0, len(maps))[n], out=dst[0])
    for k, (cols, rows) in enumerate(maps[:k_max], start=1):
        dst[k][..., rows] = src[..., cols] * _loss_weights(eta, k, len(maps))[n[cols]]
    out = out.reshape(-1, *state.psi.shape[1:])
    keep = out.reshape(len(out), -1).any(axis=1)
    return KrausBranches(state.sides, out if keep.all() else out[keep])


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


def apply_analyzer(obj, side: str, angle: float) -> KrausBranches:
    """Beamsplitter analyzer on one side; photon number per side conserved.

    Alice's rotation treats a1 as the leading mode; Bob's treats b2 as the
    leading mode, matching his reflected spin convention.  The unitary is
    that side's rotation block, applied to each branch's side axis: one
    side-sized product per branch.
    """
    if side not in ("A", "B"):
        raise ValueError("side must be 'A' or 'B'")
    state = _as_branches(obj)
    lead = 0 if side == "A" else 1
    rot = _rotation_block(state.sides[lead], lead, float(angle))
    psi = np.matmul(rot, state.psi) if lead == 0 else np.matmul(state.psi, rot.T)
    return KrausBranches(state.sides, psi)


def _bob_projection(n_b1, n_b2):
    """Twice Bob's spin projection; his convention is m = (n_b2 - n_b1)/2."""
    return n_b2 - n_b1


def measure_joint(state: KrausBranches) -> JointOutcomeDistribution:
    """Photon-counting readout: the diagonal sum_b |psi_b|^2 in the
    occupation basis, one block per per-side photon-total pair (2s_a, 2s_b),
    indexed by the up-mode counts n_a1 and (2s_b + 2m_b)/2.  A pair whose
    probabilities are all zero has no block."""
    p = np.einsum("bij,bij->ij", state.psi.conj(), state.psi).real
    pairs, cells = _readout_cells(state.sides)
    flat = np.zeros(sum((ta + 1) * (tb + 1) for ta, tb in pairs))
    flat[cells] = p
    blocks: dict[tuple[int, int], np.ndarray] = {}
    start = 0
    for ta, tb in pairs:
        q = flat[start : start + (ta + 1) * (tb + 1)]
        start += q.size
        if q.any():
            blocks[(ta, tb)] = q.reshape(ta + 1, tb + 1)
    return JointOutcomeDistribution(
        blocks=blocks,
        tail_bound=max(0.0, 1.0 - sum(p.ravel().tolist())),
        s_cutoff_used=HalfInt(max((max(k) for k in blocks), default=0)),
        converged=True,
    )


@lru_cache(maxsize=8)
def _readout_cells(sides: tuple) -> tuple[tuple[tuple[int, int], ...], np.ndarray]:
    """The photon-total pairs (2s_a, 2s_b) in sorted order, and per pair of
    side states (i_A, i_B) its cell in their blocks laid end to end,
    row-major within each.  Read-only array."""
    occ_a, occ_b = (np.array(states, dtype=np.intp).reshape(-1, 2) for states in sides)
    ta, tb = occ_a.sum(axis=1), occ_b.sum(axis=1)
    row, col = occ_a[:, 0], (tb + _bob_projection(occ_b[:, 0], occ_b[:, 1])) // 2
    tas, tbs = (np.array(sorted(set(t.tolist())), dtype=np.intp) for t in (ta, tb))  # np.unique would import numpy.ma
    sizes = (tas[:, None] + 1) * (tbs + 1)
    start = (np.cumsum(sizes) - sizes.ravel()).reshape(sizes.shape)
    cells = start[np.searchsorted(tas, ta)[:, None], np.searchsorted(tbs, tb)] + row[:, None] * (tb + 1) + col
    cells.setflags(write=False)
    return tuple((a, b) for a in tas.tolist() for b in tbs.tolist()), cells


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
    state = apply_analyzer(_lossy_state(r, loss.etas(), cutoff, s_max), "A", alpha)
    state = apply_analyzer(state, "B", beta)
    return measure_joint(state)


@lru_cache(maxsize=1)
def _lossy_state(r: float, etas: tuple[float, ...], cutoff: int, sector_max) -> KrausBranches:
    """Source, pi shift and the four loss channels: the angle-independent
    part of ``simulate_joint``, kept for the last setting.  Its ``psi`` is
    shared by every later call, so it is read-only."""
    state = KrausBranches.from_state(build_epr2(r, r, cutoff, sector_max=sector_max))
    for mode, eta in zip(("a1", "a2", "b1", "b2"), etas):
        state = apply_loss(state, mode, eta)
    state.psi.setflags(write=False)
    return state
