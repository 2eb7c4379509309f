"""Joint outcome statistics and inequality evaluation under detection loss.

The source emits two effective spins in the singlet of every sector s with
weight w_s = (2s+1) tanh(r)^(4s) / cosh(r)^4.  Loss maps each side's
|s w><s w'| onto surviving spins sigma <= s with weight h[w, mu] h[w', mu'],
h = exp(L / 2) of that side's ``loss.log_weight_table``.  The h tables are
cached across engines (up to ``numerics._CACHE_BYTES``); a table that is all
zero is skipped, and one that the efficiencies alone make zero (a side at
eta 1 or 0) is never built.  Everything is accumulated source sector by
source sector, so the infinite source sum can be cut off dynamically, with
an exact geometric bound on the discarded weight.  The cutoff is part of an
engine's setting: its ``TruncationPolicy`` says where the sum stops.  The
angle-independent kernels of the computed outcome sector pairs (one
post-selected pair, or every pair reachable below the cutoff) are converged
once per engine; the joint distribution, the post-selected correlation and
the left side at any analyzer setting are contractions of them.  The
full-trace correlation needs no kernel: it is exact in closed form.

Where loss is equal within each side it commutes with the analyzers, and the
singlet of every source sector is invariant under a common rotation, so
P(alpha, beta) = P(alpha - beta, 0).  There Bob's rotation block is the
identity and only a kernel's dl = 0 slice T_0 contributes, so that slice is
all such an engine keeps, and two plain products per pair give it and P: a
source sector adds tau^4 (h_a h_a)^T (h_b h_b) to T_0, and P = (d d)^T T_0
with d = d(alpha - beta), both squared elementwise.

Other loss keeps every bra-ket offset |dl| <= min(2s_a, 2s_b).  A source
sector's blocks are then batched products over the offsets, and analyzer
rotations contract the kernels with pairs of rotation-matrix elements in one
``_contract``, for one setting or a grid of them.  Both take the sector pairs
of a call one at a time, in the callers' order.  Each outcome sector's table
or rotation block and its padded copy are formed once per call; each pair
forms its own pair products from them.  A source sector's block that would
round to zero in every entry is not formed.

Every matrix product stays within OpenBLAS's single-thread size (M N K <=
2^18), so that BLAS runs it on the calling thread and results do not depend
on its thread count.  Each pair's offset build and contraction run over its
own ``_runs`` of consecutive offsets whose products fit, so a pair gets the
same bits alone as among others; pair products are formed for one run at a
time, never for all offsets of a large pair, and ``numerics._matmul`` splits
one product by columns where it does not fit (from s = 32 on in a
contraction, at eta < 1 a few spins earlier in a kernel build).

The methods of ``LossyEngine`` (``joint``, ``correlation``,
``mermin_sides``) are the only way to evaluate a point; one engine serves
every point at its (r, loss, policy) setting.  ``sweep`` and
``optimize_angles`` build on them.

Bob's spin convention is m_B = (n_B2 - n_B1)/2, so his "up" mode is the
second one; the per-side weight tables are generic in (w, w') and the
two sides differ only in which detector efficiency feeds which mode and in
the substitution (w, w') -> (-m, -m').
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .ideal import AngleTriple, theta_triple
from .loss import LossConfig, log_weight_table
from .numerics import (
    _SINGLE_THREAD_MACS,
    HalfInt,
    InternalConsistencyError,
    _BytesBoundedCache,
    _matmul,
    wigner_d_matrix,
)
from .source import _log_cosh, sector_weight, sector_weight_tail

__all__ = [
    "TruncationPolicy",
    "JointOutcomeDistribution",
    "ViolationRecord",
    "DegenerateSectorError",
    "InternalConsistencyError",
    "LossyEngine",
    "sweep",
    "optimize_angles",
    "correlation_alt_bookkeeping",
]

_NEG_INF = float("-inf")
_TINY = float(np.finfo(float).tiny)
_MAX_SOURCE_TWICE = 400
# a post-selected sector of lower probability is degenerate
_DEGENERATE = 1e-300
# equal-loss angle search: dense-grid oversampling, Newton steps, interpolant check
_OVERSAMPLE = 64
_NEWTON_STEPS = 8
_INTERPOLANT_TOL = 1e-9


class DegenerateSectorError(RuntimeError):
    """Raised when the post-selected sector carries essentially no weight."""


@dataclass(frozen=True)
class TruncationPolicy:
    """Where an engine cuts off the source-sector sum.

    The deepest source sector summed is ``cap(t_floor)``, t_floor being twice
    the largest computed outcome spin (0 for an unrestricted run): s =
    ``max_s``, or the largest outcome spin + 15 when ``max_s`` is None, and
    never below that outcome spin.  ``rel_tol`` 0 sums every sector up to the
    cap in one pass.  Otherwise the sum is evaluated at that outcome spin + 2
    (at most the cap), then extended by one spin (2s grows by 2) until a step
    changes the probability the computed outcome sectors hold (the
    post-selected sector probability, or the total probability of an
    unrestricted run) by at most ``rel_tol`` relative, or the cap is reached.
    Every source sector adds a positive semidefinite piece whose trace is its
    share of that probability, so no joint probability at any analyzer angle
    moves by more than the change.  A cap above s = 200 raises ``ValueError``.
    """

    max_s: HalfInt | None = None
    rel_tol: float = 1e-6

    def __post_init__(self):
        if self.max_s is not None:
            object.__setattr__(self, "max_s", HalfInt.of(self.max_s))
        if not self.rel_tol >= 0:
            raise ValueError("rel_tol must be nonnegative")
        self.cap(0)  # a max_s above the engine's limit fails the one cap rule

    def cap(self, t_floor: int) -> int:
        """2s of the deepest source sector summed when the largest computed outcome spin is t_floor / 2."""
        t_max = t_floor + 30 if self.max_s is None else max(self.max_s.twice, t_floor)
        if t_max > _MAX_SOURCE_TWICE:
            raise ValueError(f"the source sum is capped at s = {_MAX_SOURCE_TWICE // 2}, not {HalfInt(t_max)}")
        return t_max


@dataclass
class JointOutcomeDistribution:
    """Probabilities of joint readouts, one block per outcome sector pair.

    ``blocks[(2 s_a, 2 s_b)]`` is the (2s_a+1) x (2s_b+1) array P with
    P[i, j] the probability of (s_a, m_a = i - s_a, s_b, m_b = j - s_b),
    m_b in Bob's convention.  For unrestricted runs the blocks plus
    ``tail_bound`` account for all probability.  Sector-restricted runs hold
    only the requested sector pair.  Either is converged on the probability
    its blocks hold.  Arrays compare elementwise, so compare two
    distributions through ``blocks``, not with ``==``.
    """

    blocks: dict[tuple[int, int], np.ndarray]
    tail_bound: float
    s_cutoff_used: HalfInt
    converged: bool

    def total_mass(self) -> float:
        return sum(float(p.sum()) for p in self.blocks.values())

    def sector_probability(self, s_a, s_b) -> float:
        p = self.blocks.get((HalfInt.of(s_a).twice, HalfInt.of(s_b).twice))
        return 0.0 if p is None else float(p.sum())

    def correlation(self, sector: tuple | None = None, conditioned: bool = False) -> float:
        """Moment sum m_a * m_b, optionally restricted to one sector pair."""
        keys = self.blocks if sector is None else [(HalfInt.of(sector[0]).twice, HalfInt.of(sector[1]).twice)]
        num = den = 0.0
        for tsa, tsb in keys:
            p = self.blocks.get((tsa, tsb))
            if p is None:
                continue
            num += float(_ladder_weights(tsa)[0] @ p @ _ladder_weights(tsb)[0])
            den += float(p.sum())
        if not conditioned:
            return num
        if den <= 0:
            raise DegenerateSectorError("empty sector in correlation moment")
        return num / den

    def largest_difference(self, other: "JointOutcomeDistribution") -> tuple[float, tuple[int, int, int, int]]:
        """Largest |P - P_other| over all readouts and where it first occurs.

        The location is (2s_a, 2m_a, 2s_b, 2m_b); readouts are visited in
        lexicographic (s_a, m_a, s_b, m_b) order and a block missing on one
        side counts as zeros.
        """
        keys = sorted(set(self.blocks) | set(other.blocks))
        error, where = 0.0, None
        for tsa in sorted({k[0] for k in keys}):
            row = [k for k in keys if k[0] == tsa]
            # columns run over (s_b, m_b) in order, so a row-major argmax is the first maximum
            diff = np.hstack([np.abs(self.blocks.get(k, 0.0) - other.blocks.get(k, 0.0)) for k in row])
            labels = [(tsb, 2 * j - tsb) for _, tsb in row for j in range(tsb + 1)]
            ia, col = divmod(int(np.argmax(diff)), diff.shape[1])
            if where is None or diff[ia, col] > error:
                error, where = float(diff[ia, col]), (tsa, 2 * ia - tsa, *labels[col])
        return error, where


@dataclass
class ViolationRecord:
    """One evaluated point of the inequality.

    ``sector_probability`` is P(s_a = s_b = s_star) to ``s_cutoff_used``, the sector kernel's trace: the same at
    every angle and in both conventions.  Conditioned sides are divided by it; a flagged record holds 0.0.
    """

    s_star: HalfInt
    r: float
    loss: LossConfig
    angles: AngleTriple
    lhs: float
    rhs: float
    violation: float
    sector_probability: float
    s_cutoff_used: HalfInt
    converged: bool
    convention: str = "conditioned"
    error: str | None = None


def _shifted(h: np.ndarray, dmax: int, step: int) -> np.ndarray:
    """Read-only view V[dl + dmax, i, j] = h[i + dl, j + step * dl] of one zero-padded copy of ``h``."""
    n, m = h.shape
    pad = dmax * abs(step)
    padded = np.zeros((n + 2 * dmax, m + 2 * pad), dtype=h.dtype)
    padded[dmax : dmax + n, pad : pad + m] = h
    s0, s1 = padded.strides
    padded.flags.writeable = False
    return np.ndarray((2 * dmax + 1, n, m), h.dtype, padded, (pad - step * dmax) * s1, (s0 + step * s1, s0, s1))


@_BytesBoundedCache
def _amplitudes(ts: int, tso: int, eta_up: float, eta_dn: float) -> np.ndarray | None:
    """Read-only h = exp(L / 2) of ``loss.log_weight_table``, or None where it is all zero.

    A coherence's weight is h[w, mu] h[w + dw, mu + dw].  h holds no squeezing,
    so every engine and both sides at these efficiencies share it.  A table
    that ``_feeds`` rules out is not built.
    """
    if not _feeds(ts, tso, eta_up, eta_dn):
        return None
    h = np.exp(0.5 * log_weight_table(ts, tso, eta_up, eta_dn))
    if not h.any():
        return None
    h.setflags(write=False)
    return h


def _feeds(ts: int, tso: int, eta_up: float, eta_dn: float) -> bool:
    """False where the loss table from spin ts/2 to spin tso/2 is all zero by its efficiencies alone:
    a side that loses no photon keeps spin ts/2, one that loses all keeps spin 0."""
    if eta_up == eta_dn == 1.0:
        return tso == ts
    if eta_up == eta_dn == 0.0:
        return tso == 0
    return True


@lru_cache(maxsize=4096)
def _runs(n_off: int, macs: int) -> tuple[slice, ...]:
    """The fewest runs of consecutive bra-ket offsets, in order, whose products stay within
    ``_SINGLE_THREAD_MACS`` multiply-adds each, at ``macs`` per offset; one run when all fit."""
    run = max(1, _SINGLE_THREAD_MACS // macs)
    return tuple(slice(lo, lo + run) for lo in range(0, n_off, run))


def _reach(t: np.ndarray) -> int:
    """The largest bra-ket offset |dl| a kernel T[dl + reach] (or a ``_shifted`` view) holds; dl = 0 is T[reach]."""
    return (t.shape[0] - 1) // 2


def _pair_products(view: np.ndarray, h: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Pair products view[dl] * h over offsets lo <= dl < hi of a ``_shifted`` view with V[0] at dl = -reach."""
    w = _reach(view)
    return view[lo + w : hi + w] * h


def _contract(kernels: dict, alphas: Sequence[float], betas: Sequence[float]) -> dict:
    """Joint probabilities P[i, j, m_a, m_b] = sum_dl EA_dl^T T_dl EB_dl of each sector pair at (alphas[i], betas[j]).

    ``kernels`` maps (tsa, tsb) to its kernel T.  EA_dl[m, m_a] = d[m + dl, m_a] d[m, m_a] of Alice's block
    d(alphas[i]), zero where m + dl is off it; EB is the same of Bob's at offset -dl.  Each outcome sector's
    rotation blocks and their copies, padded by min(its 2s, the other side's largest 2s), are formed once per
    call.  Pair by pair, per ``_runs`` run of its offsets, so that no pair stack is held for all of them, each
    beta's half T_dl EB_dl is formed once for the whole grid, and each (i, j) writes (first run) or adds one
    flattened product.  One setting passes 1-tuples; one sector pair, a one-entry ``kernels``.
    """
    top_a, top_b = max((a for a, _ in kernels), default=0), max((b for _, b in kernels), default=0)
    alice, bob, out = {}, {}, {}
    for (a, b), t in kernels.items():
        if a not in alice:
            alice[a] = [(_shifted(d, min(a, top_b), 0), d) for d in [wigner_d_matrix(HalfInt(a), x) for x in alphas]]
        if b not in bob:
            bob[b] = [(_shifted(d, min(b, top_a), 0)[::-1], d) for d in [wigner_d_matrix(HalfInt(b), x) for x in betas]]
        dm = min(a, b)
        p = out[(a, b)] = np.empty((len(alphas), len(betas), a + 1, b + 1))
        for k, r in enumerate(_runs(t.shape[0], (a + 1) ** 2 * (b + 1))):
            lo, hi = r.start - dm, min(r.stop, t.shape[0]) - dm
            halves = [_matmul(t[r], _pair_products(sb, db, lo, hi)).reshape(-1, b + 1) for sb, db in bob[b]]
            for (sa, da), row in zip(alice[a], p):
                ea = _pair_products(sa, da, lo, hi).reshape(-1, a + 1).T
                for x, cell in zip(halves, row):
                    if k:
                        cell += _matmul(ea, x)
                    else:
                        _matmul(ea, x, cell)
    return out


def _nonnegative(p: np.ndarray, tsa: int, tsb: int) -> np.ndarray:
    """Clip roundoff below zero; a probability below -1e-9 of the block's mass is an error.

    The bound is floored at the smallest normal float, so rounding in a block of denormals is clipped too.
    """
    lowest = float(p.min())
    if lowest < -_TINY and lowest < -1e-9 * float(np.abs(p).sum()):
        raise InternalConsistencyError(
            f"negative probability {lowest:.3e} at sector ({HalfInt(tsa)}, {HalfInt(tsb)})"
        )
    return np.maximum(p, 0.0)


def _moment_parts(t: np.ndarray, tsa: int, tsb: int) -> tuple[float, float]:
    """Angle-independent sums (zz, ladders) of a kernel's sector-restricted moment.

    S_z S_z reads the dl = 0 slice; the S_x S_x ladder terms read dl = +-1,
    weighted by sqrt(sigma(sigma+1) - mu(mu +- 1)).  ``_moment`` combines them.
    A kernel of one slice is kept where the moment is invariant under a common
    rotation, so S_x S_x = S_z S_z and ladders = 4 zz (both 0 at spin 0).
    """
    c = _reach(t)
    mua, lpa, lma = _ladder_weights(tsa)
    mub, lpb, lmb = _ladder_weights(tsb)
    zz = float(mua @ t[c] @ mub)
    ladders = float(lpa @ t[c + 1] @ lmb) + float(lma @ t[c - 1] @ lpb) if c else 4.0 * zz
    return zz, ladders


def _moment(parts: tuple[float, float], alpha: float, beta: float) -> float:
    """Sector-restricted <S_A,alpha S_B,beta> from ``_moment_parts``."""
    zz, ladders = parts
    return math.cos(alpha) * math.cos(beta) * zz + math.sin(alpha) * math.sin(beta) / 4.0 * ladders


def _lhs(p: np.ndarray, s_star: HalfInt, scale: float) -> float:
    """s <|m_a - m_b|> of the post-selected block P, divided by ``scale`` (as ``_rhs``)."""
    return s_star.value * float((_projection_gaps(s_star.twice) * p).sum()) / scale


def _sector_and_convention(s_star, convention: str) -> tuple[HalfInt, bool]:
    """(s_star, conditioned) of a post-selected evaluation; ValueError on a bad argument."""
    if convention not in ("conditioned", "unconditioned"):
        raise ValueError("convention must be 'conditioned' or 'unconditioned'")
    s_star = HalfInt.of(s_star)
    if s_star.twice < 1:
        raise ValueError("s_star must be at least 1/2")
    return s_star, convention == "conditioned"


def _rhs(parts: tuple[float, float], alpha: float, beta: float, gamma: float, scale: float) -> float:
    """<S_A,alpha S_B,gamma> + <S_A,beta S_B,gamma>, each divided by ``scale`` (probability or 1.0)."""
    return _moment(parts, alpha, gamma) / scale + _moment(parts, beta, gamma) / scale


@lru_cache(maxsize=None)
def _ladder_weights(tso: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mu, <mu+1|S_+|mu>, <mu-1|S_-|mu>) for spin tso/2, read-only."""
    so = tso / 2.0
    mu = np.arange(0, tso + 1) - so
    lp = np.sqrt(np.maximum(so * (so + 1) - mu * (mu + 1), 0.0))
    lm = np.sqrt(np.maximum(so * (so + 1) - mu * (mu - 1), 0.0))
    for v in (mu, lp, lm):
        v.setflags(write=False)
    return mu, lp, lm


@lru_cache(maxsize=None)
def _projection_gaps(ts: int) -> np.ndarray:
    """|m_a - m_b| over both sides' projections of spin ts/2, read-only."""
    m = _ladder_weights(ts)[0]
    gaps = np.abs(m[:, None] - m[None, :])
    gaps.setflags(write=False)
    return gaps


class LossyEngine:
    """Shared caches for repeated evaluations at one (r, loss, policy) setting.

    ``policy`` None is ``TruncationPolicy()``.  All public methods are
    deterministic pure functions of the setting and their arguments; the
    caches are write-once memo tables.
    """

    def __init__(self, r: float, loss: LossConfig, policy: TruncationPolicy | None = None):
        if r < 0 or not math.isfinite(r):
            raise ValueError("squeezing parameter must be finite and nonnegative")
        self.r = float(r)
        self.loss = loss
        self.policy = TruncationPolicy() if policy is None else policy
        self._kernel_cache: dict = {}

    # ---------------------------------------------------------------- weights

    def _log_tau2(self, ts: int) -> float:
        """ln of the per-side sector amplitude squared, tanh(r)^(2s)/cosh(r)^2."""
        if ts == 0:
            return -2.0 * _log_cosh(self.r)
        if self.r == 0.0:
            return _NEG_INF
        return ts * math.log(math.tanh(self.r)) - 2.0 * _log_cosh(self.r)

    def _side_etas(self, side: str) -> tuple[float, float]:
        # Alice's up mode is a1; Bob's up mode is b2.
        if side == "a":
            return self.loss.eta_a1, self.loss.eta_a2
        return self.loss.eta_b2, self.loss.eta_b1

    # --------------------------------------------------------- joint outcomes

    def _tables(self, ts: int, side: str, sectors: Iterable[int]) -> dict:
        """{tso: h} of one side's nonzero ``_amplitudes`` tables h from source sector ts to each of ``sectors``,
        Bob's rows reversed."""
        etas = self._side_etas(side)
        tables = {tso: _amplitudes(ts, tso, *etas) for tso in sectors}
        return {tso: h if side == "a" else h[::-1] for tso, h in tables.items() if h is not None}

    def _t_sector(self, ts: int, pairs: list, kernels: dict) -> None:
        """Add source sector ts's block to the kernel of each pair (tsa, tsb <= ts).

        Where loss is equal within each side a kernel is its dl = 0 slice T[0] alone (see ``_framed_contract``),
        and the block is one product tau^4 (h_a h_a)^T (h_b h_b) per pair.  Other loss keeps every offset |dl| <=
        min(tsa, tsb), at T[dl + min(tsa, tsb)]: T[dl] = (-1)^dl tau^4 EA_dl^T EB_dl, EA_dl[w, mu] = h[w, mu]
        h[w + dl, mu + dl] of Alice's table, EB_dl the same of Bob's at offset -dl; (-1)^dl is what remains of
        the singlet phases.  Each outcome sector's table and its copy, padded by min(its 2s, the other side's
        largest 2s), are formed once per call; pair by pair, in the callers' order, the block is one batched
        product of the pair's own products per ``_runs`` run, written into T.  Bob's table is read at row
        ts - w.  A pair's first block becomes its kernel in ``kernels``; a pair the sector does not feed (an
        all-zero table, or tau = 0) is left alone.  A block's entries are at most 4 B, B = tau^4 (ts + 1)
        max(h_a)^2 max(h_b)^2, the 4 for subnormal products that round up; where B < 2^-1078 (read as a sum of
        logs: the maxima's product can underflow) each rounds to zero and the block is not formed; a pair's
        first such block leaves a zero kernel.
        """
        tau4 = math.exp(2.0 * self._log_tau2(ts))
        if tau4 == 0.0 or not pairs:
            return
        if self.loss.equal_within_sides:
            ha = {a: h * h for a, h in self._tables(ts, "a", {a for a, _ in pairs}).items()}
            hb = {b: h * h for b, h in self._tables(ts, "b", {b for _, b in pairs}).items()}
            for a, b in pairs:  # in the callers' order, which sets the kernels' order
                if a in ha and b in hb:
                    kernels.setdefault((a, b), np.zeros((1, a + 1, b + 1)))[0] += tau4 * _matmul(ha[a].T, hb[b])
            return
        top_a, top_b = max(a for a, _ in pairs), max(b for _, b in pairs)
        ta, tb = self._tables(ts, "a", {a for a, _ in pairs}), self._tables(ts, "b", {b for _, b in pairs})
        ha = {a: (_shifted(h, min(a, top_b), 1), h, math.log(h.max())) for a, h in ta.items()}
        hb = {b: (_shifted(h, min(b, top_a), -1), h, math.log(h.max())) for b, h in tb.items()}
        floor = -1078.0 * math.log(2.0) - math.log(tau4) - math.log(ts + 1)
        for a, b in pairs:  # in the callers' order, which sets the kernels' order
            if a not in ha or b not in hb:
                continue
            (sa, h_a, la), (sb, h_b, lb) = ha[a], hb[b]
            dm, first = min(a, b), (a, b) not in kernels
            t = kernels[(a, b)] = np.zeros((2 * dm + 1, a + 1, b + 1)) if first else kernels[(a, b)]
            if 2.0 * (la + lb) < floor:
                continue
            for r in _runs(t.shape[0], (a + 1) * (ts + 1) * (b + 1)):
                lo, hi = r.start - dm, min(r.stop, t.shape[0]) - dm
                ea = _pair_products(sa, h_a, lo, hi).transpose(0, 2, 1)
                block = _matmul(ea, _pair_products(sb, h_b, lo, hi), t[r] if first else None)
                block *= tau4
                block[(lo + 1) % 2 :: 2] *= -1.0
                if not first:
                    t[r] += block

    def _kernels(self, pairs: tuple | None):
        """Converged kernels ({(tsa, tsb): T}, cutoff, converged) of outcome sector pairs.

        T[dl + reach, mu_a, mu_b] (``_t_sector``) sums the source-sector blocks
        up to the cutoff; it does not depend on the analyzer angles, so it is built
        once per ``pairs`` and every angle contracts it.  ``pairs`` None
        takes every pair reachable below the cutoff.  The engine's policy
        sets the cutoff: its ``cap`` (a ``ValueError`` before any build),
        and with a positive ``rel_tol`` the relative-change test.
        """
        got = self._kernel_cache.get(pairs)
        if got is not None:
            return got
        t_floor = max(max(p) for p in pairs) if pairs else 0
        t_max = self.policy.cap(t_floor)
        tcut = min(t_floor + 4, t_max) if self.policy.rel_tol else t_max
        ok = tcut >= t_max and sector_weight_tail(HalfInt(tcut), self.r) == 0.0
        kernels: dict[tuple[int, int], np.ndarray] = {}
        applied, prev = -1, None
        while True:
            for ts in range(applied + 1, tcut + 1):
                live = pairs if pairs else [(a, b) for a in range(ts + 1) for b in range(ts + 1)]
                self._t_sector(ts, [p for p in live if max(p) <= ts], kernels)
            applied = tcut
            mass = sum(float(t[_reach(t)].sum()) for t in kernels.values())
            if prev is not None:
                ok = abs(mass - prev) / max(abs(mass), abs(prev), 1e-300) <= self.policy.rel_tol
            if ok or tcut >= t_max:
                break
            prev, tcut = mass, min(tcut + 2, t_max)
        # every reachable pair, in the order the cutoff reaches it; a pair no sector fed is zero
        reach = pairs if pairs else [(a, b) for a in range(tcut + 1) for b in range(tcut + 1)]
        one = self.loss.equal_within_sides
        kernels = {
            (a, b): kernels[(a, b)]
            if (a, b) in kernels
            else np.zeros((1 if one else 2 * min(a, b) + 1, a + 1, b + 1))
            for a, b in sorted(reach, key=max)
        }
        for t in kernels.values():
            t.setflags(write=False)
        got = self._kernel_cache[pairs] = (kernels, tcut, ok)
        return got

    def _sector(self, s_star: HalfInt):
        """(kernel, probability = its dl = 0 trace, ``_moment_parts``, cutoff, converged) of sector s_star.

        A probability below ``_DEGENERATE`` raises ``DegenerateSectorError``.  Before the kernel is built, so
        does a bound below half of it: each source sector the build would add, 2s* to the policy's cap,
        contributes at most its ``sector_weight``, (2s + 1) / (2s* + 1) tanh(r)^(2(2s - 2s*)) times that of
        2s*, and the half covers rounding in the built sum.
        """
        ts = s_star.twice
        if ((ts, ts),) not in self._kernel_cache:
            y = math.tanh(self.r) ** 2
            ratios = sum((t + 1) / (ts + 1) * y ** (t - ts) for t in range(ts, self.policy.cap(ts) + 1))
            bound = sector_weight(s_star, self.r) * ratios
            if bound < _DEGENERATE / 2:
                raise DegenerateSectorError(f"sector s={s_star} has probability {bound:.3e} at most")
        kernels, tcut, ok = self._kernels(((ts, ts),))
        t = kernels[(ts, ts)]
        prob = float(t[_reach(t)].sum())
        if prob < _DEGENERATE:
            raise DegenerateSectorError(f"sector s={s_star} has probability {prob:.3e}")
        return t, prob, _moment_parts(t, ts, ts), HalfInt(tcut), ok

    def _framed_contract(self, kernels: dict, alphas: Sequence[float], betas: Sequence[float]) -> dict:
        """Joint probabilities P[i, j, m_a, m_b] of each sector pair at (alphas[i], betas[j]).

        Loss equal within each side commutes with the analyzers, and the source is invariant under a common
        rotation, so P(alpha, beta) = P(alpha - beta, 0).  At beta = 0 Bob's rotation block is the identity, so
        only the dl = 0 slice T_0 that such a kernel keeps contributes: P = (d d)^T T_0 with d = d(alpha - beta)
        squared elementwise, one ``_matmul`` per pair and setting.  Other loss is ``_contract``.
        """
        if not self.loss.equal_within_sides:
            return _contract(kernels, alphas, betas)
        settings = [x - y for x in alphas for y in betas]
        squares: dict = {}
        out = {}
        for (a, b), t in kernels.items():
            if a not in squares:
                squares[a] = [np.square(wigner_d_matrix(HalfInt(a), x)).T for x in settings]
            p = np.empty((len(settings), a + 1, b + 1))
            for e, cell in zip(squares[a], p):
                _matmul(e, t[0], cell)
            out[(a, b)] = p.reshape(len(alphas), len(betas), a + 1, b + 1)
        return out

    def joint(self, alpha: float, beta: float, sectors: tuple | None = None) -> JointOutcomeDistribution:
        """Joint readout distribution at analyzer angles (alpha, beta).

        ``sectors`` restricts the computed blocks to one (s_a, s_b) pair of
        nonnegative spins (else ``ValueError``); otherwise every outcome
        sector pair reachable below the cutoff is returned.
        """
        pairs = None if sectors is None else (tuple(HalfInt.of(s).twice for s in sectors),)
        if pairs and (len(pairs[0]) != 2 or min(pairs[0]) < 0):
            raise ValueError(f"sectors must be two nonnegative spins (s_a, s_b), not {sectors!r}")
        kernels, tcut, ok = self._kernels(pairs)
        # an all-zero kernel (a pair no source sector fed) has an all-zero block: it is not contracted
        blocks = self._framed_contract({k: t for k, t in kernels.items() if t.any()}, (alpha,), (beta,))
        return JointOutcomeDistribution(
            blocks={
                k: _nonnegative(blocks[k][0, 0], *k) if k in blocks else np.zeros((k[0] + 1, k[1] + 1))
                for k in sorted(kernels)
            },
            tail_bound=sector_weight_tail(HalfInt(tcut), self.r),
            s_cutoff_used=HalfInt(tcut),
            converged=ok,
        )

    # ----------------------------------------------------------- correlations

    def correlation(self, alpha: float, beta: float, s_star) -> tuple[float, float, HalfInt | None, bool]:
        """<S_A,alpha S_B,beta> as (value, sector_probability, cutoff_used, converged).

        Post-selected on sigma_a = sigma_b = s_star and divided by the sector
        probability.  With ``s_star`` None it is the exact full trace, (value,
        1.0, None, True): loss scales a_i^dag a_j by sqrt(eta_i eta_j), and
        n_a1 = n_b1, n_a2 = n_b2 are independent thermal counts of mean
        sinh(r)^2.  This closed form ignores the engine's policy; the moment
        of a capped source sum is ``joint(alpha, beta).correlation()``.  Its
        terms grow as exp(4r)/4, so from r = 177.79 or so they overflow a
        float and it raises ``ValueError``.
        """
        if s_star is None:
            from fractions import Fraction  # imported here: it loads the decimal module, which nothing else needs

            a1, a2, b1, b2 = self.loss.etas()
            # zz's n^2 coefficient, rounded once: it cancels (to 0 at etas 0, 0.7, 1, 0.5) and n^2 swamps the n term
            f1, f2, g1, g2 = map(Fraction, (a1, a2, b1, b2))
            quad = float(f1 * g2 + f2 * g1 - 2 * (f1 * g1 + f2 * g2))
            try:
                n = math.sinh(self.r) ** 2
                zz = 0.25 * (quad * n * n - (a1 * b1 + a2 * b2) * n)
                ladders = -math.sqrt(a1 * a2 * b1 * b2) * math.sinh(2.0 * self.r) ** 2 / 2.0
            except OverflowError:
                zz = ladders = math.inf
            if not (math.isfinite(zz) and math.isfinite(ladders)):
                raise ValueError(f"the full-trace correlation overflows at r = {self.r!r}")
            return _moment((zz, ladders), alpha, beta), 1.0, None, True
        _, prob, parts, cutoff, ok = self._sector(HalfInt.of(s_star))
        return _moment(parts, alpha, beta) / prob, prob, cutoff, ok

    # ------------------------------------------------------- inequality sides

    def mermin_sides(self, s_star, angles: AngleTriple, convention: str = "conditioned") -> ViolationRecord:
        """Both sides of the inequality, post-selected on sector s_star.

        ``convention`` is "conditioned" (both sides divided by the sector
        probability; the experimentally meaningful per-trial estimate) or
        "unconditioned" (raw sector-restricted sums).  The sector's kernel is
        summed to the engine policy's cutoff for s_star.
        """
        s_star, conditioned = _sector_and_convention(s_star, convention)
        ts = s_star.twice
        t, prob, parts, cutoff, ok = self._sector(s_star)
        scale = prob if conditioned else 1.0
        p = self._framed_contract({(ts, ts): t}, (angles.alpha,), (angles.beta,))[(ts, ts)][0, 0]
        lhs = _lhs(_nonnegative(p, ts, ts), s_star, scale)
        rhs = _rhs(parts, angles.alpha, angles.beta, angles.gamma, scale)
        return ViolationRecord(
            s_star=s_star,
            r=self.r,
            loss=self.loss,
            angles=angles,
            lhs=lhs,
            rhs=rhs,
            violation=rhs - lhs,
            sector_probability=prob,
            s_cutoff_used=cutoff,
            converged=ok,
            convention=convention,
        )


def _evaluate(
    eng: LossyEngine, s_star, angles: AngleTriple, convention: str, failure: Exception | None = None
) -> ViolationRecord:
    """``eng.mermin_sides``, or a record flagged with the error it raised.

    A ``DegenerateSectorError`` or ``InternalConsistencyError`` becomes a
    record with NaN sides, ``converged`` false and the error text in
    ``error``, so one bad point does not abort a grid.  ``failure``, an
    error already raised where the point's angles were sought, flags the
    point without evaluating it.
    """
    if failure is None:
        try:
            return eng.mermin_sides(s_star, angles, convention)
        except (DegenerateSectorError, InternalConsistencyError) as exc:
            failure = exc
    nan = float("nan")
    return ViolationRecord(
        s_star=HalfInt.of(s_star),
        r=eng.r,
        loss=eng.loss,
        angles=angles,
        lhs=nan,
        rhs=nan,
        violation=nan,
        sector_probability=0.0,
        s_cutoff_used=HalfInt(0),
        converged=False,
        convention=convention,
        error=f"{type(failure).__name__}: {failure}",
    )


def sweep(
    s_stars: Iterable,
    rs: Iterable[float],
    etas: Iterable[float],
    thetas: Iterable[float],
    policy: TruncationPolicy | None = None,
    convention: str = "conditioned",
    base_angle: float = 0.0,
) -> list[ViolationRecord]:
    """Evaluate the inequality on a full (s*, r, eta, theta) grid.

    Records come back in lexicographic grid order (s*, then r, then eta,
    then theta); per-point failures become flagged records rather than
    aborting the sweep.  Every grid point is an independent pure evaluation,
    by an engine under ``policy``.
    """
    s_list = [HalfInt.of(s) for s in s_stars]
    r_list = [float(r) for r in rs]
    e_list = [float(e) for e in etas]
    t_list = [float(t) for t in thetas]
    if not (s_list and r_list and e_list and t_list):
        raise ValueError("sweep grid must be nonempty on every axis")
    engines = {(r, eta): LossyEngine(r, LossConfig.equal_eta(eta), policy) for r in r_list for eta in e_list}
    return [
        _evaluate(engines[(r, eta)], s_star, theta_triple(theta, base_angle), convention)
        for s_star in s_list
        for r in r_list
        for eta in e_list
        for theta in t_list
    ]


def _golden_min(f: Callable[[float], float], a: float, b: float, tol: float) -> tuple[float, float]:
    """Deterministic golden-section minimization on [a, b]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while abs(b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = (a + b) / 2.0
    return x, f(x)


def optimize_angles(
    s_star,
    r: float,
    loss: LossConfig,
    policy: TruncationPolicy | None = None,
    convention: str = "conditioned",
) -> tuple[AngleTriple, ViolationRecord]:
    """Maximize the violation over the analyzer triple.

    Loss equal within each side commutes with the analyzers, so the optimum
    lies on the ``theta_triple`` family, where the violation is a degree-4s
    trigonometric polynomial in theta; ``_theta_optimum`` reads its maximum
    from 4s + 1 lhs samples of one contraction and returns theta in (0, pi/2],
    gamma = 0.  Other loss runs the multi-start coordinate descent of
    ``_coordinate_descent``, whose every golden-section line search reads one
    line of the exact 2-D interpolant of the lhs: a 1-D trigonometric
    polynomial in alpha or beta, a constant in gamma.  Both read
    ``_lhs_coefficients`` of one engine under ``policy``, check their
    interpolant against the returned record and are deterministic.
    """
    return _optimize(LossyEngine(r, loss, policy), HalfInt.of(s_star), convention)


def _optimize(eng: LossyEngine, s_star: HalfInt, convention: str) -> tuple[AngleTriple, ViolationRecord]:
    """``optimize_angles`` on an existing engine, whose kernel the caller may read again."""
    return (_theta_optimum if eng.loss.equal_within_sides else _coordinate_descent)(eng, s_star, convention)


def _checked_optimum(
    eng: LossyEngine, s_star: HalfInt, convention: str, angles: AngleTriple, predicted: float, defect: str
) -> tuple[AngleTriple, ViolationRecord]:
    """The optimizers' result: a fresh ``mermin_sides`` at ``angles``.

    A violation more than ``_INTERPOLANT_TOL`` off the interpolant's ``predicted`` one raises
    ``InternalConsistencyError`` naming the ``defect``: the curve is not of the assumed degree.  An
    unconditioned gap is divided by the sector probability, so both conventions are held in the same scale.
    """
    record = eng.mermin_sides(s_star, angles, convention)
    gap = abs(predicted - record.violation)
    if convention == "unconditioned":
        gap /= record.sector_probability
    if not gap <= _INTERPOLANT_TOL:
        raise InternalConsistencyError(f"{defect}: interpolant off by {gap:.3e} at {angles}")
    return record.angles, record


def _lhs_coefficients(eng: LossyEngine, s_star: HalfInt, convention: str, full: bool):
    """(C, ``_moment_parts``, scale) of sector s_star: the lhs is Re(e^{ik alpha} C e^{ik beta}), k by fftfreq.

    d(alpha) has frequencies -s..s and P is bilinear in the two pair stacks, so the lhs has degree 2s in each
    angle.  One ``_framed_contract`` samples it at 2 pi k / (4s + 1) on both axes (``full``) or for alpha at
    beta = 0, each block checked by ``_nonnegative`` and scaled as ``_lhs``; a 2-D FFT gives every coefficient.
    """
    s_star, conditioned = _sector_and_convention(s_star, convention)
    ts = s_star.twice
    t, prob, parts, _, _ = eng._sector(s_star)
    scale = prob if conditioned else 1.0
    grid = 2.0 * math.pi * np.arange(2 * ts + 1) / (2 * ts + 1)
    blocks = eng._framed_contract({(ts, ts): t}, grid, grid if full else (0.0,))[(ts, ts)]
    coef = np.fft.fft2([[_lhs(_nonnegative(p, ts, ts), s_star, scale) for p in row] for row in blocks])
    return coef / coef.size, parts, scale


def _theta_optimum(eng: LossyEngine, s_star: HalfInt, convention: str) -> tuple[AngleTriple, ViolationRecord]:
    """Maximum of the violation along ``theta_triple(theta)`` from its Fourier coefficients.

    Loss equal within each side commutes with the analyzers, so the lhs depends on alpha - beta = pi + 2 theta
    only: (-1)^j C[j, 0] of ``_lhs_coefficients`` (one row of 4s + 1 samples) is its coefficient at frequency
    2j in theta, and with gamma = 0 the rhs is -2 zz sin(theta) / scale.  The maximum of a 64x zero-padded
    evaluation is polished by Newton steps and folded into [-pi/2, pi/2] by f(pi - theta) = f(theta); lhs is
    even and rhs odd in theta, so it lies in (0, pi/2].  ``_checked_optimum`` holds it to the returned record.
    """
    row, (zz, _), scale = _lhs_coefficients(eng, s_star, convention, full=False)
    ts = s_star.twice
    deg, k = 2 * ts, np.arange(2 * ts + 1)
    # f(theta) = Re sum_k coef_k e^{i k theta}; irfft samples 2 f - coef_0, whose maximum is f's
    coef = np.zeros(deg + 1, dtype=complex)
    coef[::2] = np.where(k[: ts + 1], -2.0, -1.0) * (-1.0) ** k[: ts + 1] * row[: ts + 1, 0]
    coef[1] = 2j * zz / scale
    n = _OVERSAMPLE * (2 * deg + 1)
    theta = 2.0 * math.pi * int(np.argmax(np.fft.irfft(coef, n))) / n

    def derivative(x: float, order: int) -> float:
        return float(np.real((coef * (1j * k) ** order) @ np.exp(1j * k * x)))

    for _ in range(_NEWTON_STEPS):
        curvature = derivative(theta, 2)
        if not curvature < 0:
            break
        step = derivative(theta, 1) / curvature
        theta -= step
        if abs(step) < 1e-15:
            break
    theta = math.remainder(theta, 2.0 * math.pi)
    if abs(theta) > math.pi / 2:
        theta = math.copysign(math.pi, theta) - theta
    defect = f"violation along theta is not a trigonometric polynomial of degree {deg}"
    return _checked_optimum(eng, s_star, convention, theta_triple(theta), derivative(theta, 0), defect)


def _descent_lines(eng: LossyEngine, s_star: HalfInt, convention: str) -> Callable:
    """``line(x, i)``: the (lhs, rhs) of ``mermin_sides`` as functions of angle i of x = (alpha, beta, gamma),
    the other two held at x.

    The lhs is Re(e(alpha) C e(beta)) of ``_lhs_coefficients``' C on the full grid, e(x)_k = e^{ikx}.  Along
    alpha it is Re sum_k u_k e^{ik alpha} with u = C e(beta), formed once per line; the k and -k terms fold into
    Re(w_k e^{ik alpha}), w_k = u_k + conj(u_{-k}), summed by a cos/sin recurrence.  Along beta u = e(alpha) C;
    along gamma the lhs is a constant and the rhs is ``_rhs``.  Along alpha or beta the held angle's moment and
    gamma's cosine and sine are computed once, and the moving one's in ``_moment``'s order of operations, so the
    rhs is ``_rhs`` bit for bit.
    """
    coef, parts, scale = _lhs_coefficients(eng, s_star, convention, full=True)
    zz, ladders = parts
    ts = s_star.twice
    k = np.fft.ifftshift(np.arange(-ts, ts + 1))

    def along(u: np.ndarray) -> Callable[[float, float], float]:
        """The lhs at cos, sin of the moving angle, from u of its line."""
        w = u[1 : ts + 1] + np.conj(u[:ts:-1])
        c0, terms = float(u[0].real), list(zip(w.real.tolist(), w.imag.tolist()))

        def lhs(c1: float, s1: float) -> float:
            total, c, s = c0, c1, s1
            for re, im in terms:
                total += re * c - im * s
                c, s = c * c1 - s * s1, s * c1 + c * s1
            return total

        return lhs

    def line(x: Sequence[float], i: int) -> Callable[[float], tuple[float, float]]:
        a, b, g = x
        if i == 2:
            lhs = along(coef @ np.exp(1j * b * k))(math.cos(a), math.sin(a))
            return lambda v: (lhs, _rhs(parts, a, b, v, scale))
        at = along(coef @ np.exp(1j * b * k) if i == 0 else np.exp(1j * a * k) @ coef)
        cg, sg = math.cos(g), math.sin(g)
        held = _moment(parts, b if i == 0 else a, g) / scale

        def sides(v: float) -> tuple[float, float]:
            c, s = math.cos(v), math.sin(v)
            return at(c, s), (c * cg * zz + s * sg / 4.0 * ladders) / scale + held

        return sides

    return line


def _coordinate_descent(eng: LossyEngine, s_star: HalfInt, convention: str) -> tuple[AngleTriple, ViolationRecord]:
    """Multi-start coordinate descent over (alpha, beta, gamma) with golden-section line searches.

    Each search minimizes -violation along one angle, read from that angle's ``_descent_lines`` line: a
    trigonometric polynomial of degree 2s in alpha or beta, and the rhs alone in gamma.  No point of a search
    contracts the kernel; ``_checked_optimum`` holds the result to the returned record.
    """
    line = _descent_lines(eng, s_star, convention)
    sv = max(s_star.value, 0.5)
    starts = [theta_triple(t) for t in (0.15 / sv, 0.35 / sv, 0.7 / sv, 1.2 / sv)]
    starts.append(AngleTriple(2.0, -1.2, 0.3))
    best = (math.inf, (math.nan,) * 3)
    for st in starts:
        x = [st.alpha, st.beta, st.gamma]
        lhs, rhs = line(x, 0)(x[0])
        fx = -(rhs - lhs)
        width = 0.7
        for _ in range(7):
            for i in range(3):
                sides = line(x, i)

                def objective(v: float) -> float:
                    lhs, rhs = sides(v)
                    return -(rhs - lhs)

                xv, fv = _golden_min(objective, x[i] - width, x[i] + width, tol=max(1e-7, width * 1e-5))
                if fv < fx:
                    x[i], fx = xv, fv
            width *= 0.45
        if fx < best[0]:
            best = (fx, tuple(x))
    defect = f"lhs is not a trigonometric polynomial of degree {s_star.twice}"
    return _checked_optimum(eng, s_star, convention, AngleTriple(*best[1]), -best[0], defect)


# ----------------------------------------------- alternative exponent variant


def correlation_alt_bookkeeping(
    r: float,
    eta: float,
    alpha: float,
    beta: float,
    max_s,
) -> float:
    """Equal-loss crosscorrelation with the alternative exponent bookkeeping.

    This form keeps a projection-dependent loss exponent
    (1-eta)^(2(2s + 2m - sigma_a - sigma_b)) and shifts the transmission
    exponent by +-1 in the two ladder blocks.  It is retained only so the
    validation report can adjudicate it against the brute-force oracle; the
    production path derives its exponents from the decohered spin operator
    and carries eta^(2 sigma) (1-eta)^(2s-2sigma) per side in every block.
    Unconditioned (full-trace) value, source sum capped at ``max_s``.
    """
    if not 0.0 < eta < 1.0:
        raise ValueError("the alternative bookkeeping is only finite for 0 < eta < 1")
    eng = LossyEngine(r, LossConfig.equal_eta(eta))
    ln_1m = math.log1p(-eta)
    ca_cb, sa_sb = math.cos(alpha) * math.cos(beta), math.sin(alpha) * math.sin(beta)
    total = 0.0
    for ts in range(0, HalfInt.of(max_s).twice + 1):
        lt4 = 2.0 * eng._log_tau2(ts)
        if lt4 == _NEG_INF:
            continue
        # For each source projection m the sum over both sides' surviving
        # labels is a product of one-side sums over the production weight
        # tables: z for S_z S_z, u and d for the raising and lowering blocks,
        # whose transmission exponents are eta^(+-2) away from the tables'.
        # The loss exponent is (1-eta)^(2 * 2m) away from the tables'.
        z = u = d = np.zeros(ts + 1)
        for tso in range(ts + 1):
            h = _amplitudes(ts, tso, eta, eta)
            if h is None:  # underflowed to zero: adds nothing
                continue
            lower, same, upper = h * _shifted(h, 1, 1)
            mu, lp, lm = _ladder_weights(tso)
            z = z + same @ mu
            u = u + upper @ lp
            d = d + lower @ lm
        prefactor = np.exp(lt4 + 2.0 * ln_1m * (2 * np.arange(ts + 1) - ts))
        zz = prefactor @ (z * z)
        ladders = prefactor @ (eta * eta * u * u + d * d / (eta * eta))
        total += ca_cb * zz - sa_sb / 4.0 * ladders
    return float(total)
