"""Joint outcome statistics and inequality evaluation under detection loss.

The source emits two effective spins in the singlet of every sector s with
weight w_s = (2s+1) tanh(r)^(4s) / cosh(r)^4.  Loss maps each side's
|s w><s w'| onto surviving spins sigma <= s; the weights come from the
per-side log tables of ``loss.log_weight_table``, products of two per-mode
binomial thinnings.  Analyzer rotations contract those weights with pairs of
rotation-matrix elements.
Everything is accumulated sector by sector so the infinite source sum can be
cut off dynamically, with an exact geometric bound on the discarded weight.
The angle-independent kernels of the computed outcome sector pairs (one
post-selected pair, or every pair reachable below the cutoff) are converged
once per truncation policy; the joint distribution, both correlations and
the left side at any analyzer setting are contractions of them.

Bob's spin convention is m_B = (n_B2 - n_B1)/2, so his "up" mode is the
second one; the per-side weight tables are generic in (w, w') and the
two sides differ only in which detector efficiency feeds which mode and in
the substitution (w, w') -> (-m, -m').
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable

import numpy as np

from .ideal import AngleTriple, theta_triple
from .loss import LossConfig, log_weight_table
from .numerics import HalfInt, InternalConsistencyError, wigner_d_matrix
from .source import sector_weight_tail

__all__ = [
    "TruncationPolicy",
    "JointOutcomeDistribution",
    "ViolationRecord",
    "DegenerateSectorError",
    "InternalConsistencyError",
    "LossyEngine",
    "lossy_joint_distribution",
    "lossy_correlation",
    "lossy_mermin_sides",
    "sweep",
    "optimize_angles",
    "correlation_alt_bookkeeping",
]

_NEG_INF = float("-inf")
_MAX_SOURCE_TWICE = 400
# equal-loss angle search: dense-grid oversampling, Newton steps, interpolant check
_OVERSAMPLE = 64
_NEWTON_STEPS = 8
_INTERPOLANT_TOL = 1e-9


class DegenerateSectorError(RuntimeError):
    """Raised when the post-selected sector carries essentially no weight."""


@dataclass(frozen=True)
class TruncationPolicy:
    """Dynamic cutoff control for the source-sector sum.

    The sum is evaluated at ``s_start``, then repeatedly extended by one
    spin (2s grows by 2) until the relative change drops below ``rel_tol``
    or ``max_s`` is reached.  The watched quantity is always the probability
    the computed outcome sectors hold (the post-selected sector probability,
    or the total probability of an unrestricted run): every source sector
    adds a positive semidefinite piece whose trace is its share of that
    probability, so no joint probability at any analyzer angle moves by more
    than the change.  ``max_s`` above 200 raises ``ValueError``.
    """

    s_start: HalfInt
    max_s: HalfInt
    rel_tol: float = 1e-6

    def __post_init__(self):
        object.__setattr__(self, "s_start", HalfInt.of(self.s_start))
        object.__setattr__(self, "max_s", HalfInt.of(self.max_s))
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be positive")
        if self.s_start.twice > self.max_s.twice:
            raise ValueError("s_start must not exceed max_s")
        if self.max_s.twice > _MAX_SOURCE_TWICE:
            raise ValueError(f"max_s is capped at {_MAX_SOURCE_TWICE / 2:.0f}")

    @classmethod
    def for_sector(cls, s_star, rel_tol: float = 1e-6) -> "TruncationPolicy":
        """Default policy for a post-selected sector: start at s_star + 2, cap at s_star + 15."""
        t = HalfInt.of(s_star).twice
        return cls(s_start=HalfInt(t + 4), max_s=HalfInt(t + 30), rel_tol=rel_tol)


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
            p = self.blocks.get((tsa, tsb), np.zeros((tsa + 1, tsb + 1)))
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
    """One evaluated point of the inequality."""

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


def _pair_weights(logw: np.ndarray, dw: int) -> np.ndarray:
    """W[w, mu] = exp((logw[w, mu] + logw[w + dw, mu + dw]) / 2); zero off the table."""
    out = np.zeros_like(logw)
    nw, nmu = logw.shape
    w0, w1 = max(0, -dw), min(nw, nw - dw)
    m0, m1 = max(0, -dw), min(nmu, nmu - dw)
    if w1 > w0 and m1 > m0:
        out[w0:w1, m0:m1] = np.exp(0.5 * (logw[w0:w1, m0:m1] + logw[w0 + dw : w1 + dw, m0 + dw : m1 + dw]))
    return out


def _pair_stack(d: np.ndarray, dmax: int) -> np.ndarray:
    """E[dl + dmax, i, a] = d[i + dl, a] * d[i, a]; zero where i + dl is off the block."""
    n = d.shape[0]
    padded = np.zeros((n + 2 * dmax, n))
    padded[dmax : dmax + n] = d
    rows = np.arange(n)[None, :] + np.arange(2 * dmax + 1)[:, None]
    return padded[rows] * d


def _contract(t: np.ndarray, tsa: int, tsb: int, alpha: float, beta: float) -> np.ndarray:
    """Joint probabilities P[m_a, m_b] = sum_dl EA_dl^T T_dl EB_dl of one sector pair."""
    dmax = (t.shape[0] - 1) // 2
    ea = _pair_stack(wigner_d_matrix(HalfInt(tsa), alpha), dmax)
    # Bob's bra-ket offset is -dl
    eb = _pair_stack(wigner_d_matrix(HalfInt(tsb), beta), dmax)[::-1]
    x = t @ eb
    return ea.reshape(-1, tsa + 1).T @ x.reshape(-1, tsb + 1)


def _nonnegative(p: np.ndarray, tsa: int, tsb: int) -> np.ndarray:
    """Clip roundoff below zero; a probability below -1e-9 is an error."""
    lowest = float(p.min())
    if lowest < -1e-9:
        raise InternalConsistencyError(
            f"negative probability {lowest:.3e} at sector ({HalfInt(tsa)}, {HalfInt(tsb)})"
        )
    return np.maximum(p, 0.0)


def _moment(t: np.ndarray, tsa: int, tsb: int, alpha: float, beta: float) -> float:
    """Sector-restricted <S_A,alpha S_B,beta> of a kernel.

    S_z S_z reads the dl = 0 slice; the S_x S_x ladder terms read dl = +-1,
    weighted by sqrt(sigma(sigma+1) - mu(mu +- 1)).
    """
    c = (t.shape[0] - 1) // 2
    mua, lpa, lma = _ladder_weights(tsa)
    mub, lpb, lmb = _ladder_weights(tsb)
    value = math.cos(alpha) * math.cos(beta) * float(mua @ t[c] @ mub)
    if c:
        ladders = float(lpa @ t[c + 1] @ lmb) + float(lma @ t[c - 1] @ lpb)
        value += math.sin(alpha) * math.sin(beta) / 4.0 * ladders
    return value


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


class LossyEngine:
    """Shared caches for repeated evaluations at one (r, loss) setting.

    All public methods are deterministic pure functions of their arguments;
    the caches are write-once memo tables.
    """

    def __init__(self, r: float, loss: LossConfig):
        if r < 0 or not math.isfinite(r):
            raise ValueError("squeezing parameter must be finite and nonnegative")
        self.r = float(r)
        self.loss = loss
        self._logw_cache: dict = {}
        self._kernel_cache: dict = {}

    # ---------------------------------------------------------------- weights

    def _log_tau2(self, ts: int) -> float:
        """ln of the per-side sector amplitude squared, tanh(r)^(2s)/cosh(r)^2."""
        if ts == 0:
            return -2.0 * math.log(math.cosh(self.r))
        if self.r == 0.0:
            return _NEG_INF
        return ts * math.log(math.tanh(self.r)) - 2.0 * math.log(math.cosh(self.r))

    def _side_etas(self, side: str) -> tuple[float, float]:
        # Alice's up mode is a1; Bob's up mode is b2.
        if side == "a":
            return self.loss.eta_a1, self.loss.eta_a2
        return self.loss.eta_b2, self.loss.eta_b1

    def _logw(self, side: str, ts: int, tso: int) -> np.ndarray:
        """``loss.log_weight_table`` of one side, from spin ts/2 to tso/2, cached per engine."""
        key = (side, ts, tso)
        got = self._logw_cache.get(key)
        if got is None:
            got = log_weight_table(ts, tso, *self._side_etas(side))
            got.setflags(write=False)
            self._logw_cache[key] = got
        return got

    # --------------------------------------------------------- joint outcomes

    def _t_sector(self, tsa: int, tsb: int, ts: int) -> np.ndarray:
        """Angle-independent kernel T[dw_idx, mu_a, mu_b] of one source sector ts >= tsa, tsb.

        T[dw][i, j] = sign(dw) tau^4 sum_w WA(w, dw)[i] WB(-w, -dw)[j], where
        the sign (-1)^(w'-w) is what remains of the singlet phases.
        """
        dmax = min(tsa, tsb)
        lt2 = self._log_tau2(ts)
        la = self._logw("a", ts, tsa) + lt2
        lb = self._logw("b", ts, tsb) + lt2
        out = np.empty((2 * dmax + 1, tsa + 1, tsb + 1))
        for dl in range(-dmax, dmax + 1):
            blk = _pair_weights(la, dl).T @ _pair_weights(lb, -dl)[::-1]
            out[dl + dmax] = -blk if dl % 2 else blk
        return out

    def _kernels(self, pairs: tuple | None, policy: TruncationPolicy):
        """Converged kernels ({(tsa, tsb): T}, cutoff, converged) of outcome sector pairs.

        T[dl + dmax, mu_a, mu_b] sums the source-sector blocks up to the
        cutoff; it does not depend on the analyzer angles, so it is built
        once per (pairs, policy) and every angle contracts it.  ``pairs``
        None takes every pair reachable below the cutoff.  The cutoff grows
        until a step changes the probability the kernels hold by at most
        ``policy.rel_tol`` relative.
        """
        key = (pairs, policy)
        got = self._kernel_cache.get(key)
        if got is not None:
            return got
        t_floor = max(max(p) for p in pairs) if pairs else 0
        t_max = max(policy.max_s.twice, t_floor)
        tcut = max(policy.s_start.twice, t_floor)
        ok = tcut >= t_max and sector_weight_tail(HalfInt(tcut), self.r) == 0.0
        kernels: dict[tuple[int, int], np.ndarray] = {}
        applied, prev = -1, None
        while True:
            for ts in range(applied + 1, tcut + 1):
                live = pairs if pairs else [(a, b) for a in range(ts + 1) for b in range(ts + 1)]
                for tsa, tsb in live:
                    if max(tsa, tsb) > ts:
                        continue
                    t = kernels.get((tsa, tsb))
                    if t is None:
                        dmax = min(tsa, tsb)
                        t = kernels[(tsa, tsb)] = np.zeros((2 * dmax + 1, tsa + 1, tsb + 1))
                    t += self._t_sector(tsa, tsb, ts)
            applied = tcut
            mass = sum(float(t[min(tsa, tsb)].sum()) for (tsa, tsb), t in kernels.items())
            if prev is not None:
                ok = abs(mass - prev) / max(abs(mass), abs(prev), 1e-300) <= policy.rel_tol
            if ok or tcut >= t_max:
                break
            prev, tcut = mass, min(tcut + 2, t_max)
        for t in kernels.values():
            t.setflags(write=False)
        got = self._kernel_cache[key] = (kernels, tcut, ok)
        return got

    def joint(
        self,
        alpha: float,
        beta: float,
        policy: TruncationPolicy,
        sectors: tuple | None = None,
    ) -> JointOutcomeDistribution:
        """Joint readout distribution at analyzer angles (alpha, beta).

        ``sectors`` restricts the computed blocks to one (s_a, s_b) pair;
        otherwise every outcome sector pair reachable below the cutoff is returned.
        """
        pairs = None if sectors is None else ((HalfInt.of(sectors[0]).twice, HalfInt.of(sectors[1]).twice),)
        kernels, tcut, ok = self._kernels(pairs, policy)
        return JointOutcomeDistribution(
            blocks={k: _nonnegative(_contract(t, *k, alpha, beta), *k) for k, t in sorted(kernels.items())},
            tail_bound=sector_weight_tail(HalfInt(tcut), self.r),
            s_cutoff_used=HalfInt(tcut),
            converged=ok,
        )

    # ----------------------------------------------------------- correlations

    def correlation(
        self,
        alpha: float,
        beta: float,
        s_star,
        policy: TruncationPolicy,
        conditioned: bool = True,
    ) -> tuple[float, float, HalfInt, bool]:
        """<S_A,alpha S_B,beta>, post-selected on sigma_a = sigma_b = s_star.

        With ``s_star`` None the full (unconditioned) trace over all
        surviving sectors is returned and the sector probability is 1.
        Returns (value, sector_probability, cutoff_used, converged).
        """
        tso = None if s_star is None else HalfInt.of(s_star).twice
        kernels, tcut, ok = self._kernels(None if tso is None else ((tso, tso),), policy)
        num = sum(_moment(t, tsa, tsb, alpha, beta) for (tsa, tsb), t in kernels.items())
        if tso is None:
            return num, 1.0, HalfInt(tcut), ok
        den = float(kernels[(tso, tso)][tso].sum())
        if conditioned:
            if den < 1e-300:
                raise DegenerateSectorError(f"sector s={HalfInt(tso)} has probability {den:.3e}")
            return num / den, den, HalfInt(tcut), ok
        return num, den, HalfInt(tcut), ok

    # ------------------------------------------------------- inequality sides

    def mermin_sides(
        self,
        s_star,
        angles: AngleTriple,
        policy: TruncationPolicy | None = None,
        convention: str = "conditioned",
    ) -> ViolationRecord:
        """Both sides of the inequality, post-selected on sector s_star.

        ``convention`` is "conditioned" (both sides divided by the sector
        probability; the experimentally meaningful per-trial estimate) or
        "unconditioned" (raw sector-restricted sums).
        """
        if convention not in ("conditioned", "unconditioned"):
            raise ValueError("convention must be 'conditioned' or 'unconditioned'")
        s_star = HalfInt.of(s_star)
        if s_star.twice < 1:
            raise ValueError("s_star must be at least 1/2")
        if policy is None:
            policy = TruncationPolicy.for_sector(s_star)
        conditioned = convention == "conditioned"
        ts = s_star.twice
        kernels, tcut, ok = self._kernels(((ts, ts),), policy)
        t = kernels[(ts, ts)]
        p = _nonnegative(_contract(t, ts, ts, angles.alpha, angles.beta), ts, ts)
        mass = float(p.sum())
        if mass < 1e-300:
            raise DegenerateSectorError(f"sector s={s_star} has probability {mass:.3e}")
        m = _ladder_weights(ts)[0]
        lhs_raw = float((np.abs(m[:, None] - m[None, :]) * p).sum())
        c1 = _moment(t, ts, ts, angles.alpha, angles.gamma)
        c2 = _moment(t, ts, ts, angles.beta, angles.gamma)
        if conditioned:
            den = float(t[ts].sum())
            c1, c2 = c1 / den, c2 / den
            lhs = s_star.value * lhs_raw / mass
        else:
            lhs = s_star.value * lhs_raw
        rhs = c1 + c2
        return ViolationRecord(
            s_star=s_star,
            r=self.r,
            loss=self.loss,
            angles=angles,
            lhs=lhs,
            rhs=rhs,
            violation=rhs - lhs,
            sector_probability=den if conditioned else mass,
            s_cutoff_used=HalfInt(tcut),
            converged=ok,
            convention=convention,
        )


# ------------------------------------------------------------- functional API


def lossy_joint_distribution(
    r: float,
    loss: LossConfig,
    alpha: float,
    beta: float,
    policy: TruncationPolicy,
    sectors: tuple | None = None,
) -> JointOutcomeDistribution:
    return LossyEngine(r, loss).joint(alpha, beta, policy, sectors=sectors)


def lossy_correlation(
    r: float,
    loss: LossConfig,
    alpha: float,
    beta: float,
    s_star=None,
    policy: TruncationPolicy | None = None,
    conditioned: bool = True,
) -> float:
    if policy is None:
        policy = TruncationPolicy.for_sector(s_star if s_star is not None else HalfInt(0))
    value, _, _, _ = LossyEngine(r, loss).correlation(alpha, beta, s_star, policy, conditioned)
    return value


def lossy_mermin_sides(
    s_star,
    r: float,
    loss: LossConfig,
    angles: AngleTriple,
    policy: TruncationPolicy | None = None,
    convention: str = "conditioned",
) -> ViolationRecord:
    return LossyEngine(r, loss).mermin_sides(s_star, angles, policy, convention)


def _failure_record(s_star, r, loss, angles, convention, exc) -> ViolationRecord:
    nan = float("nan")
    return ViolationRecord(
        s_star=HalfInt.of(s_star),
        r=r,
        loss=loss,
        angles=angles,
        lhs=nan,
        rhs=nan,
        violation=nan,
        sector_probability=0.0,
        s_cutoff_used=HalfInt(0),
        converged=False,
        convention=convention,
        error=f"{type(exc).__name__}: {exc}",
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
    aborting the sweep.  Every grid point is an independent pure evaluation.
    """
    s_list = [HalfInt.of(s) for s in s_stars]
    r_list = [float(r) for r in rs]
    e_list = [float(e) for e in etas]
    t_list = [float(t) for t in thetas]
    if not (s_list and r_list and e_list and t_list):
        raise ValueError("sweep grid must be nonempty on every axis")
    out: list[ViolationRecord] = []
    engines: dict[tuple[float, float], LossyEngine] = {}
    for s_star in s_list:
        pol = policy if policy is not None else TruncationPolicy.for_sector(s_star)
        for r in r_list:
            for eta in e_list:
                eng = engines.get((r, eta))
                if eng is None:
                    eng = LossyEngine(r, LossConfig.equal_eta(eta))
                    engines[(r, eta)] = eng
                for theta in t_list:
                    angles = theta_triple(theta, base_angle)
                    try:
                        rec = eng.mermin_sides(s_star, angles, pol, convention)
                    except (DegenerateSectorError, InternalConsistencyError) as exc:
                        rec = _failure_record(s_star, r, eng.loss, angles, convention, exc)
                    out.append(rec)
    return out


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

    At equal loss the correlations depend only on angle differences, so the
    optimum lies on the ``theta_triple`` family with base 0 (rhs is largest
    at gamma = (alpha + beta)/2 for any alpha - beta, and lhs depends on
    alpha - beta alone).  Along that family the violation is a
    trigonometric polynomial of degree 4s in theta, which 8s + 1 samples
    on one cached kernel determine exactly; its maximum is read from the
    coefficients and returned in canonical form, theta in (0, pi/2] and
    gamma = 0 (``_theta_optimum``).  Unequal loss uses multi-start
    coordinate descent with golden-section line searches from a fixed start
    list.  Both are deterministic, so repeated runs return identical triples.
    """
    s_star = HalfInt.of(s_star)
    eng = LossyEngine(r, loss)
    if policy is None:
        policy = TruncationPolicy.for_sector(s_star)
    if loss.equal:
        return _theta_optimum(eng, s_star, policy, convention)
    return _coordinate_descent(eng, s_star, policy, convention)


def _theta_optimum(
    eng: LossyEngine, s_star: HalfInt, policy: TruncationPolicy, convention: str
) -> tuple[AngleTriple, ViolationRecord]:
    """Maximum of the violation along ``theta_triple(theta)`` from its Fourier coefficients.

    lhs is a trigonometric polynomial of degree 2s in alpha - beta = pi + 2 theta
    and rhs goes as sin(theta), so n = 2 * 4s + 1 equispaced samples give
    every coefficient.  The maximum of a 64x zero-padded evaluation is
    polished by Newton steps on the coefficients and folded into
    [-pi/2, pi/2] by f(pi - theta) = f(theta); lhs is even and rhs odd in
    theta, so the maximum lies in (0, pi/2].  The interpolant must agree
    with the returned record; a gap above ``_INTERPOLANT_TOL`` means the
    curve is not of that degree and raises ``InternalConsistencyError``.
    """
    deg = 2 * s_star.twice
    n = 2 * deg + 1
    samples = [
        eng.mermin_sides(s_star, theta_triple(2.0 * math.pi * k / n), policy, convention).violation
        for k in range(n)
    ]
    spectrum = np.fft.rfft(samples)
    dense = np.fft.irfft(spectrum, _OVERSAMPLE * n) * _OVERSAMPLE
    theta = 2.0 * math.pi * int(np.argmax(dense)) / (_OVERSAMPLE * n)
    # f(theta) = Re sum_k coef_k e^{i k theta}
    k = np.arange(deg + 1)
    coef = spectrum / n
    coef[1:] *= 2.0

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
    record = eng.mermin_sides(s_star, theta_triple(theta), policy, convention)
    gap = abs(derivative(theta, 0) - record.violation)
    if not gap <= _INTERPOLANT_TOL:
        raise InternalConsistencyError(
            f"violation along theta is not a trigonometric polynomial of degree {deg}: "
            f"interpolant off by {gap:.3e} at theta={theta!r}"
        )
    return record.angles, record


def _coordinate_descent(
    eng: LossyEngine, s_star: HalfInt, policy: TruncationPolicy, convention: str
) -> tuple[AngleTriple, ViolationRecord]:
    """Multi-start coordinate descent over (alpha, beta, gamma) with golden-section line searches."""

    def objective(a: float, b: float, g: float) -> float:
        angles = AngleTriple(a, b, g)
        return -eng.mermin_sides(s_star, angles, policy, convention).violation

    sv = max(s_star.value, 0.5)
    starts = [theta_triple(t) for t in (0.15 / sv, 0.35 / sv, 0.7 / sv, 1.2 / sv)]
    starts.append(AngleTriple(2.0, -1.2, 0.3))
    best: tuple[float, tuple[float, float, float]] | None = None
    for st in starts:
        x = [st.alpha, st.beta, st.gamma]
        fx = objective(*x)
        width = 0.7
        for _ in range(7):
            for i in range(3):
                lo, hi = x[i] - width, x[i] + width

                def line(v, i=i):
                    y = list(x)
                    y[i] = v
                    return objective(*y)

                xv, fv = _golden_min(line, lo, hi, tol=max(1e-7, width * 1e-5))
                if fv < fx:
                    x[i], fx = xv, fv
            width *= 0.45
        if best is None or fx < best[0]:
            best = (fx, tuple(x))
    assert best is not None
    angles = AngleTriple(*best[1])
    record = eng.mermin_sides(s_star, angles, policy, convention)
    return angles, record


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
            logw = eng._logw("a", ts, tso)
            mu, lp, lm = _ladder_weights(tso)
            z = z + np.exp(logw) @ mu
            u = u + _pair_weights(logw, 1) @ lp
            d = d + _pair_weights(logw, -1) @ lm
        prefactor = np.exp(lt4 + 2.0 * ln_1m * (2 * np.arange(ts + 1) - ts))
        zz = prefactor @ (z * z)
        ladders = prefactor @ (eta * eta * u * u + d * d / (eta * eta))
        total += ca_cb * zz - sa_sb / 4.0 * ladders
    return float(total)
