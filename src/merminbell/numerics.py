"""Exact half-integer labels, exact binomials and stable rotation blocks.

Rotation blocks d(beta) = exp(-i beta S_y) come from one cached
eigenbasis S_y = V Lambda V^dagger per spin, with the exact eigenvalues
-s..s: d(beta) = Re(V exp(-i beta Lambda) V^dagger) (Feng, Wang, Yang & Jin,
Phys. Rev. E 92, 043307 (2015)).  V is taken from the real symmetric S_x,
which a diagonal phase matrix maps onto S_y, so only real arithmetic is
needed.  S_x is tridiagonal, so its eigenvectors need no LAPACK call: each
column's top entry is known in closed form, 2^(-s) sqrt(C(2s, s + lambda)),
a three-term recurrence carries it down to the middle row, and the
reflection m -> -m, which commutes with S_x, fills the lower half.  Every
operation stays on the calling thread: ``_matmul`` splits a product above
OpenBLAS's single-thread size by columns.  Unlike the explicit alternating
factorial sum, which cancels catastrophically beyond 2s ~ 60, this stays
unitary to rounding at every spin the engine accepts.  The eigenvectors are
checked for orthogonality once per spin, since an orthogonal V makes every
d(beta) unitary to rounding.  Built blocks are kept, read-only, in a
least-recently-used cache bounded by their total size in bytes
(a ``_BytesBoundedCache``, which keeps ``lossy``'s loss tables too).  An angle
above ``MAX_ANGLE`` in magnitude, or not finite, raises ``ValueError``.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

__all__ = [
    "InternalConsistencyError",
    "HalfInt",
    "half",
    "half_range",
    "binom_int",
    "wigner_d",
    "wigner_d_matrix",
]


class InternalConsistencyError(RuntimeError):
    """Raised when a computed quantity breaks an identity it must satisfy,
    such as a negative probability or a non-orthogonal rotation basis."""


@dataclass(frozen=True, order=True)
class HalfInt:
    """Half-integer quantum number stored exactly as twice its value."""

    twice: int

    @classmethod
    def of(cls, value) -> "HalfInt":
        """Coerce an int, float or HalfInt to an exact half-integer; ``ValueError`` for any other float,
        infinities and NaN included."""
        if isinstance(value, HalfInt):
            return value
        if isinstance(value, (int, np.integer)):
            return cls(2 * int(value))
        doubled = 2.0 * float(value)
        if not math.isfinite(doubled) or abs(doubled - round(doubled)) > 1e-9:
            raise ValueError(f"{value!r} is not a half-integer")
        return cls(round(doubled))

    @property
    def value(self) -> float:
        return self.twice / 2.0

    @property
    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def __float__(self) -> float:
        return self.twice / 2.0

    def __add__(self, other) -> "HalfInt":
        return HalfInt(self.twice + HalfInt.of(other).twice)

    __radd__ = __add__

    def __sub__(self, other) -> "HalfInt":
        return HalfInt(self.twice - HalfInt.of(other).twice)

    def __rsub__(self, other) -> "HalfInt":
        return HalfInt(HalfInt.of(other).twice - self.twice)

    def __neg__(self) -> "HalfInt":
        return HalfInt(-self.twice)

    def __abs__(self) -> "HalfInt":
        return HalfInt(abs(self.twice))

    def __mul__(self, k):
        if isinstance(k, (int, np.integer)):
            return HalfInt(self.twice * int(k))
        return NotImplemented

    __rmul__ = __mul__

    def __str__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"


def half(value) -> HalfInt:
    """Shorthand for ``HalfInt.of``."""
    return HalfInt.of(value)


def half_range(lo, hi, step=HalfInt(1)) -> Iterator[HalfInt]:
    """Inclusive range of half-integers, default step 1/2."""
    lo, hi, step = HalfInt.of(lo), HalfInt.of(hi), HalfInt.of(step)
    if step.twice <= 0:
        raise ValueError("step must be positive")
    t = lo.twice
    while t <= hi.twice:
        yield HalfInt(t)
        t += step.twice


def binom_int(n: int, k: int) -> int:
    """C(n, k) as an exact integer; 0 outside 0 <= k <= n (including n < 0)."""
    if n < 0 or k < 0 or k > n:
        return 0
    return math.comb(n, k)


# OpenBLAS runs a gemm with M*N*K <= 65536 * GEMM_MULTITHREAD_THRESHOLD (4) on the calling thread
_SINGLE_THREAD_MACS = 2**18


def _matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``np.matmul(a, b, out)`` over the fewest runs of b's columns whose products stay within
    ``_SINGLE_THREAD_MACS`` multiply-adds each, so BLAS keeps them on the calling thread.  The runs
    have near-equal widths, so the last is not a narrow remainder."""
    m, k = a.shape[-2:]
    n = b.shape[-1]
    if m * k * n <= _SINGLE_THREAD_MACS:
        return np.matmul(a, b, out)
    runs = -(-n // max(1, _SINGLE_THREAD_MACS // (m * k)))
    out = np.empty(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (m, n)) if out is None else out
    cuts = [n * i // runs for i in range(runs + 1)]
    for lo, hi in zip(cuts, cuts[1:]):
        np.matmul(a, b[..., lo:hi], out=out[..., lo:hi])
    return out


# |alpha * m| < 2^23 at every spin up to 200, so the phase alpha * m is within 5e-10 rad of exact
MAX_ANGLE = 2.0**15


def _check_spin_label(ts: int, tm: int) -> None:
    if ts < 0 or abs(tm) > ts or (ts - tm) % 2 != 0:
        raise ValueError(f"invalid spin label (2s={ts}, 2m={tm})")


def wigner_d(s, m1, m2, alpha: float) -> float:
    """Rotation matrix element <s m1|exp(-i*alpha*S_y)|s m2>; real valued."""
    ts = HalfInt.of(s).twice
    t1 = HalfInt.of(m1).twice
    t2 = HalfInt.of(m2).twice
    _check_spin_label(ts, t1)
    _check_spin_label(ts, t2)
    return float(_wigner_matrix_cached(ts, float(alpha))[(ts + t1) // 2, (ts + t2) // 2])


def _sx_basis(ts: int) -> np.ndarray:
    """Unit eigenvectors of S_x for spin ts/2, columns by ascending eigenvalue -s..s.

    Column c (eigenvalue lambda = c - s) starts from its closed-form top
    entry u[2s] = 2^(-s) sqrt(C(2s, c)) and runs the eigenvalue equation
    h[k-1] u[k-1] = lambda u[k] - h[k] u[k+1] down to the middle row, with
    h[k] = <k+1|S_x|k>; towards the middle the recurrence follows the
    growing solution.  The lower half is u[2s-k] = (-1)^(2s-c) u[k].
    """
    s = ts / 2.0
    m = np.arange(-ts, ts, 2) / 2.0
    h = np.append(0.5 * np.sqrt(s * (s + 1) - m * (m + 1)), 0.0)  # h[k] = <k+1|S_x|k>, h[2s] = 0
    lam = np.arange(-ts, ts + 1, 2) / 2.0
    log_top = math.lgamma(ts + 1) - ts * math.log(2.0)
    u = np.zeros((ts + 2, ts + 1))
    u[ts] = [math.exp(0.5 * (log_top - math.lgamma(c + 1) - math.lgamma(ts - c + 1))) for c in range(ts + 1)]
    mid = (ts + 1) // 2
    for k in range(ts, mid, -1):
        u[k - 1] = (lam * u[k] - h[k] * u[k + 1]) / h[k - 1]
    u = u[: ts + 1]
    parity = np.where((ts - np.arange(ts + 1)) % 2 == 0, 1.0, -1.0)
    u[:mid] = parity * u[ts:ts - mid:-1]
    if ts % 2 == 0:
        u[mid, parity < 0] = 0.0
    u /= np.sqrt(np.einsum("kc,kc->c", u, u))
    return u


@lru_cache(maxsize=None)
def _sx_eigenvectors(ts: int) -> np.ndarray:
    """``_sx_basis(ts)``, checked for orthogonality within 1e-10."""
    u = _sx_basis(ts)
    defect = float(np.max(np.abs(_matmul(u.T, u) - np.eye(ts + 1))))
    if not defect <= 1e-10:
        raise InternalConsistencyError(
            f"rotation basis of spin {HalfInt(ts)} has orthogonality defect {defect:.2e}"
        )
    return u


@lru_cache(maxsize=None)
def _quarter_turn_pattern(ts: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(projections -s..s, (k - j) % 4 even, (k - j) % 4 >= 2) for spin ts/2, read-only."""
    m = np.arange(-ts, ts + 1, 2) / 2.0
    k = np.arange(ts + 1)
    quarter_turns = (k[None, :] - k[:, None]) % 4
    even, negated = quarter_turns % 2 == 0, quarter_turns >= 2
    for v in (m, even, negated):
        v.setflags(write=False)
    return m, even, negated


def _wigner_block(ts: int, alpha: float) -> np.ndarray:
    if not abs(alpha) <= MAX_ANGLE:
        raise ValueError(f"rotation angle {alpha!r} is not finite or exceeds 2^15 rad in magnitude")
    # S_y = D^dagger S_x D with D = diag(i^k), so S_y = V Lambda V^dagger with
    # V = D^dagger U, and d = Re(V exp(-i alpha Lambda) V^dagger) has entries
    # Re(i^(k-j) (C - i S)[j, k]) for C, S = U cos(alpha Lambda), sin(alpha Lambda) U^T
    u = _sx_eigenvectors(ts)
    m, even, negated = _quarter_turn_pattern(ts)
    phase = alpha * m
    out = np.where(even, _matmul(u * np.cos(phase), u.T), _matmul(u * np.sin(phase), u.T))
    out[negated] *= -1.0
    out.setflags(write=False)
    return out


# the size in bytes past which a ``_BytesBoundedCache`` drops its least recently used values
_CACHE_BYTES = 64 * 2**20


class _BytesBoundedCache:
    """Thread-safe memo of ``build`` over hashable arguments, for values that are read-only arrays or None.

    ``values`` holds the least recently used first; once their nbytes sum (``nbytes``) passes ``_CACHE_BYTES``,
    the oldest are dropped.  A value is built under the lock, so each is built once.
    """

    def __init__(self, build):
        self.build = build
        self.values: OrderedDict = OrderedDict()
        self.nbytes = 0
        self._lock = threading.Lock()

    def __call__(self, *key):
        with self._lock:
            if key in self.values:
                self.values.move_to_end(key)
                return self.values[key]
            out = self.values[key] = self.build(*key)
            self.nbytes += getattr(out, "nbytes", 0)
            while self.nbytes > _CACHE_BYTES:
                self.nbytes -= getattr(self.values.popitem(last=False)[1], "nbytes", 0)
        return out

    def cache_clear(self) -> None:
        with self._lock:
            self.values.clear()
            self.nbytes = 0


# read-only blocks of ``_wigner_block`` by (2s, angle)
_wigner_matrix_cached = _BytesBoundedCache(_wigner_block)


def wigner_d_matrix(s, alpha: float) -> np.ndarray:
    """Full rotation block for spin s; rows/columns by ascending projection.

    The returned array is cached and read-only.
    """
    ts = HalfInt.of(s).twice
    if ts < 0:
        raise ValueError("spin must be nonnegative")
    return _wigner_matrix_cached(ts, float(alpha))
