import math
import sys
import threading
from decimal import Decimal, localcontext

import numpy as np
import pytest

from merminbell import numerics
from merminbell.loss import log_thinning
from merminbell.numerics import (
    HalfInt,
    binom_int,
    half_range,
    wigner_d,
    wigner_d_matrix,
)


# ----------------------------------------------------------------- half ints


def test_halfint_coercion_and_arithmetic():
    assert HalfInt.of(1.5).twice == 3
    assert HalfInt.of(2).twice == 4
    assert (HalfInt(3) + HalfInt(1)).twice == 4
    assert (HalfInt(3) - 1).twice == 1
    assert (-HalfInt(3)).twice == -3
    assert abs(HalfInt(-5)) == HalfInt(5)
    assert HalfInt(2).is_integer and not HalfInt(3).is_integer
    assert float(HalfInt(3)) == 1.5
    assert str(HalfInt(3)) == "3/2" and str(HalfInt(4)) == "2"
    with pytest.raises(ValueError):
        HalfInt.of(0.3)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 1e308])
def test_halfint_of_a_value_without_a_finite_double_is_a_value_error(value):
    with pytest.raises(ValueError, match="is not a half-integer"):
        HalfInt.of(value)


def test_half_range():
    vals = [h.value for h in half_range(0, 2)]
    assert vals == [0.0, 0.5, 1.0, 1.5, 2.0]


# ------------------------------------------------------------------ binomials


def _pascal_table(n_max):
    # independent oracle: Pascal recurrence over exact integers
    table = {(0, 0): 1}
    for n in range(1, n_max + 1):
        for k in range(n + 1):
            table[(n, k)] = table.get((n - 1, k - 1), 0) + table.get((n - 1, k), 0)
    return table


def test_binom_int_matches_pascal_exactly():
    table = _pascal_table(30)
    for (n, k), want in table.items():
        assert binom_int(n, k) == want


def test_binom_int_pascal_identity_in_value_space():
    for n in range(1, 31):
        for k in range(n + 1):
            assert binom_int(n, k) == binom_int(n - 1, k - 1) + binom_int(n - 1, k)


def _ln_choose(n, k):
    # ln C(n, k) read off the shared thinning function: at eta = 1/2 every
    # outcome carries the same factor 2^-n
    return log_thinning(n, k, 0.5) + n * math.log(2.0)


def test_binom_out_of_range_is_exact_zero():
    assert math.exp(_ln_choose(2, 1)) == pytest.approx(2.0, rel=1e-14)
    assert _ln_choose(5, -1) == float("-inf")
    assert _ln_choose(5, 6) == float("-inf")
    assert _ln_choose(-1, 0) == float("-inf")
    assert binom_int(5, -1) == 0


def test_binom_large_value():
    assert math.exp(_ln_choose(40, 20)) == pytest.approx(137846528820.0, rel=1e-12)


def test_binom_log_vs_exact():
    for n in range(0, 61):
        k = np.arange(n + 1)
        want = np.array([float(binom_int(n, j)) for j in k])
        np.testing.assert_allclose(np.exp(_ln_choose(n, k)), want, rtol=5e-13)


def test_log_thinning_support():
    assert log_thinning(4, 2, 0.5) == pytest.approx(math.log(6.0 / 16.0))
    assert log_thinning(4, 5, 0.5) == float("-inf")
    assert log_thinning(-2, 0, 0.5) == float("-inf")
    # 0^0 = 1 at the ends of the efficiency range
    assert log_thinning(3, 3, 1.0) == 0.0
    assert log_thinning(3, 0, 0.0) == 0.0
    assert log_thinning(0, 0, 0.0) == 0.0
    assert log_thinning(3, 2, 1.0) == float("-inf")
    assert log_thinning(3, 1, 0.0) == float("-inf")


# ------------------------------------------------------------------- jacobi
# The Jacobi form of d below is an independent reference for the rotation
# blocks; its three-term recurrence is checked against the explicit series.


def jacobi_poly(n: int, a: int, b: int, x: float) -> float:
    """P_n^{(a,b)}(x) by the three-term recurrence (assumes a, b > -1)."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    p_prev = 1.0
    if n == 0:
        return p_prev
    p = (a + 1) + (a + b + 2) * (x - 1) / 2.0
    for k in range(2, n + 1):
        c1 = 2.0 * k * (k + a + b) * (2 * k + a + b - 2)
        c2 = (2 * k + a + b - 1) * ((2 * k + a + b) * (2 * k + a + b - 2) * x + a * a - b * b)
        c3 = 2.0 * (k + a - 1) * (k + b - 1) * (2 * k + a + b)
        p, p_prev = (c2 * p - c3 * p_prev) / c1, p
    return p


def _jacobi_series(n, a, b, x):
    # independent oracle: explicit finite series
    tot = 0.0
    for k in range(n + 1):
        tot += (
            binom_int(n + a, n - k)
            * binom_int(n + b, k)
            * ((x - 1) / 2.0) ** k
            * ((x + 1) / 2.0) ** (n - k)
        )
    return tot


def test_jacobi_degree_zero_and_one():
    assert jacobi_poly(0, 3, 1, 0.2) == 1.0
    assert jacobi_poly(1, 0, 0, -0.7) == pytest.approx(-0.7, rel=1e-14)


def test_jacobi_frozen_value():
    # series oracle gives exactly -4652/8000 for these arguments
    assert jacobi_poly(3, 1, 2, 0.3) == pytest.approx(-0.5815, rel=1e-12)
    assert _jacobi_series(3, 1, 2, 0.3) == pytest.approx(-0.5815, rel=1e-12)


@pytest.mark.parametrize("n", range(7))
@pytest.mark.parametrize("a", [0, 1, 2, 3])
@pytest.mark.parametrize("b", [0, 1, 2])
def test_jacobi_recurrence_vs_series(n, a, b):
    for x in (-0.9, -0.3, 0.0, 0.45, 0.8):
        assert jacobi_poly(n, a, b, x) == pytest.approx(_jacobi_series(n, a, b, x), rel=1e-12, abs=1e-12)


# ------------------------------------------------------------------ wigner d


def _expm_oracle(ts, alpha):
    # matrix exponential of the S_y generator via eigendecomposition
    n = ts + 1
    m = np.arange(-ts, ts + 1, 2) / 2.0
    s = ts / 2.0
    sp = np.zeros((n, n))
    for i in range(n - 1):
        sp[i + 1, i] = math.sqrt(s * (s + 1) - m[i] * (m[i] + 1))
    sy = (sp - sp.T) / 2j
    w, v = np.linalg.eigh(sy)
    return (v @ np.diag(np.exp(-1j * alpha * w)) @ v.conj().T).real


def test_wigner_identity_rotation():
    for ts in range(0, 8):
        d = wigner_d_matrix(HalfInt(ts), 0.0)
        assert np.allclose(d, np.eye(ts + 1), atol=1e-15)


def test_wigner_small_spin_closed_forms():
    a = 0.73
    assert wigner_d(0.5, 0.5, 0.5, a) == pytest.approx(math.cos(a / 2), rel=1e-14)
    assert wigner_d(0.5, 0.5, -0.5, a) == pytest.approx(-math.sin(a / 2), rel=1e-14)
    assert wigner_d(0.5, -0.5, 0.5, a) == pytest.approx(math.sin(a / 2), rel=1e-14)
    assert wigner_d(1, 0, 0, a) == pytest.approx(math.cos(a), rel=1e-12)


def test_wigner_rejects_an_angle_above_the_bound():
    # below 2^15 rad the phase alpha * m stays within 5e-10 rad of exact; d has period 4 pi
    assert numerics.MAX_ANGLE == 2.0**15
    for ts in (1, 7, 40):
        for alpha in (2.0**15, -(2.0**15)):
            reduced = wigner_d_matrix(HalfInt(ts), math.remainder(alpha, 4 * math.pi))
            assert np.max(np.abs(wigner_d_matrix(HalfInt(ts), alpha) - reduced)) < 1e-9
    for alpha in (math.nextafter(2.0**15, math.inf), -1e15, 1e308, math.inf, math.nan):
        with pytest.raises(ValueError, match="exceeds 2\\^15 rad"):
            wigner_d_matrix(HalfInt(2), alpha)
        with pytest.raises(ValueError, match="exceeds 2\\^15 rad"):
            wigner_d(1, 0, 0, alpha)


@pytest.mark.parametrize("ts", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("alpha", [0.3, 1.1, 2.7, -0.8, 3.9])
def test_wigner_vs_matrix_exponential(ts, alpha):
    d = wigner_d_matrix(HalfInt(ts), alpha)
    assert np.max(np.abs(d - _expm_oracle(ts, alpha))) < 1e-12


def test_wigner_unitarity():
    for ts in range(1, 10):
        for alpha in np.linspace(0.0, 2 * math.pi, 9):
            d = wigner_d_matrix(HalfInt(ts), float(alpha))
            assert np.max(np.abs(d @ d.T - np.eye(ts + 1))) < 1e-10


def test_wigner_transpose_symmetry():
    for ts in (1, 2, 3, 5):
        d = wigner_d_matrix(HalfInt(ts), 1.234)
        n = ts + 1
        for i1 in range(n):
            for i2 in range(n):
                sign = -1.0 if (i1 - i2) % 2 else 1.0
                assert d[i1, i2] == pytest.approx(sign * d[i2, i1], abs=1e-10)


def test_wigner_composition():
    for ts in (1, 2, 4, 7):
        for a, b in ((0.3, 0.9), (1.2, -0.5), (2.0, 2.0)):
            left = wigner_d_matrix(HalfInt(ts), a) @ wigner_d_matrix(HalfInt(ts), b)
            right = wigner_d_matrix(HalfInt(ts), a + b)
            assert np.max(np.abs(left - right)) < 1e-9


def test_wigner_jacobi_form_cross_check():
    # closed form with Jacobi polynomials, valid for m1 >= m2 and m1 >= -m2;
    # it equals the explicit-sum element with the row/column roles swapped
    def jacobi_form(ts, t1, t2, alpha):
        s, m1, m2 = ts / 2.0, t1 / 2.0, t2 / 2.0
        pref = math.sqrt(
            math.factorial(int(s + m1))
            * math.factorial(int(s - m1))
            / (math.factorial(int(s + m2)) * math.factorial(int(s - m2)))
        )
        return (
            pref
            * math.cos(alpha / 2) ** (m1 + m2)
            * math.sin(alpha / 2) ** (m1 - m2)
            * jacobi_poly(int(s - m1), int(m1 - m2), int(m1 + m2), math.cos(alpha))
        )

    for ts in (1, 2, 3, 4, 6):
        for t1 in range(-ts, ts + 1, 2):
            for t2 in range(-ts, ts + 1, 2):
                if t1 < t2 or t1 < -t2:
                    continue
                for alpha in (0.4, 1.1, 2.3):
                    want = jacobi_form(ts, t1, t2, alpha)
                    got = wigner_d(HalfInt(ts), HalfInt(t2), HalfInt(t1), alpha)
                    assert got == pytest.approx(want, abs=1e-10)


def _d_explicit_reference(ts, t1, t2, p, r, q):
    """d^s_{m1 m2}(beta) at cos(beta/2) = p/q, sin(beta/2) = r/q.

    The explicit alternating sum, rewritten with binomials so that every term
    is an integer over q^(2s); it is summed exactly, and only the square root
    of the factorial ratio is taken in 80-digit decimal arithmetic.
    """
    jp1, jm1 = (ts + t1) // 2, (ts - t1) // 2
    jp2, jm2 = (ts + t2) // 2, (ts - t2) // 2
    dm = (t1 - t2) // 2
    total = 0
    for k in range(max(0, -dm), min(jp2, jm1) + 1):
        term = math.comb(jp2, k) * math.comb(jm2, dm + k) * p ** (ts - dm - 2 * k) * r ** (dm + 2 * k)
        total += -term if (dm + k) % 2 else term
    f = math.factorial
    with localcontext() as ctx:
        ctx.prec = 80
        scale = (Decimal(f(jp1) * f(jm1)) / Decimal(f(jp2) * f(jm2))).sqrt()
        return float(scale * Decimal(total) / Decimal(q) ** ts)


@pytest.mark.parametrize("p, r, q", [(3, 4, 5), (5, 12, 13)])
def test_wigner_vs_exact_explicit_sum(p, r, q):
    # the float explicit sum cancels catastrophically beyond 2s ~ 60; the
    # exact one does not, so a few full rows per spin pin the blocks up to 2s = 160
    beta = 2.0 * math.atan2(r, p)
    for ts in (1, 2, 5, 20, 41, 80, 121, 160):
        d = wigner_d_matrix(HalfInt(ts), beta)
        for i1 in sorted({0, ts // 3, ts // 2, ts}):
            want = [_d_explicit_reference(ts, 2 * i1 - ts, 2 * i2 - ts, p, r, q) for i2 in range(ts + 1)]
            assert np.max(np.abs(d[i1] - want)) < 1e-13, (ts, i1)


def test_wigner_invalid_labels():
    with pytest.raises(ValueError):
        wigner_d(1, 1.5, 0, 0.3)
    with pytest.raises(ValueError):
        wigner_d(1, 2, 0, 0.3)


def _wigner_matrix_reference(ts, alpha):
    # the block builder before its per-spin pattern cache, with its two products
    # split by columns as the builder splits them (from 2s = 64)
    u = numerics._sx_eigenvectors(ts)
    phase = alpha * (np.arange(-ts, ts + 1, 2) / 2.0)
    k = np.arange(ts + 1)
    quarter_turns = (k[None, :] - k[:, None]) % 4
    product = numerics._matmul
    out = np.where(quarter_turns % 2 == 0, product(u * np.cos(phase), u.T), product(u * np.sin(phase), u.T))
    out[quarter_turns >= 2] *= -1.0
    return out


@pytest.mark.parametrize("ts", [*range(1, 10), 40, 120, 400])
def test_wigner_block_unchanged_by_pattern_cache(ts):
    for alpha in (-9.0, -math.pi, -0.3, 0.0, 1e-3, 1.1, math.pi / 2, 2 * math.pi + 0.4, 13.0):
        d = wigner_d_matrix(HalfInt(ts), alpha)
        assert np.array_equal(d, _wigner_matrix_reference(ts, alpha)), alpha
        assert not d.flags.writeable


BASIS_SPINS = [*range(13), 59, 60, 61, 120, 399, 400]


def _sx_matrix(ts):
    m = np.arange(-ts, ts, 2) / 2.0
    h = 0.5 * np.sqrt(ts / 2.0 * (ts / 2.0 + 1) - m * (m + 1))
    return np.diag(h, -1) + np.diag(h, 1)


@pytest.mark.parametrize("ts", BASIS_SPINS)
def test_recurrence_basis_diagonalises_sx(ts):
    u = numerics._sx_basis(ts)
    lam = np.arange(-ts, ts + 1, 2) / 2.0
    assert np.max(np.abs((u * lam) @ u.T - _sx_matrix(ts)), initial=0.0) <= 1e-14 * max(1.0, ts / 2.0)
    assert np.max(np.abs(u.T @ u - np.eye(ts + 1))) <= 1e-14
    assert np.array_equal(numerics._sx_eigenvectors(ts), u)


@pytest.mark.parametrize("ts", BASIS_SPINS)
def test_wigner_block_matches_lapack_eigenbasis(ts):
    # d = Re(D^dagger V exp(-i alpha Lambda) V^T D), D = diag(i^k), V from LAPACK's eigh of S_x
    _, v = np.linalg.eigh(_sx_matrix(ts))
    lam = np.arange(-ts, ts + 1, 2) / 2.0
    phase = 1j ** np.arange(ts + 1)
    for alpha in (-2.2, 0.37, 1.3, math.pi, 5.9):
        want = (phase.conj()[:, None] * ((v * np.exp(-1j * alpha * lam)) @ v.T) * phase[None, :]).real
        assert np.max(np.abs(wigner_d_matrix(HalfInt(ts), alpha) - want)) <= 1e-13, alpha


def test_wigner_cache_bounded_by_bytes(monkeypatch):
    assert numerics._CACHE_BYTES == 64 * 2**20
    block = 101 * 101 * 8
    cache = numerics._wigner_matrix_cached
    cache.cache_clear()
    monkeypatch.setattr(numerics, "_CACHE_BYTES", 10 * block)
    try:
        first = wigner_d_matrix(HalfInt(100), 0.0)
        for i in range(1, 25):
            wigner_d_matrix(HalfInt(100), 0.01 * i)
            assert wigner_d_matrix(HalfInt(100), 0.0) is first  # a hit keeps the block recent
        cached = cache.values
        assert sum(d.nbytes for d in cached.values()) == cache.nbytes == 10 * block
        assert list(cached) == [(100, 0.01 * i) for i in range(16, 25)] + [(100, 0.0)]
        wigner_d_matrix(HalfInt(0), 0.3)  # a small block evicts a large one
        assert cache.nbytes == 9 * block + 8 and (100, 0.16) not in cached
    finally:
        monkeypatch.undo()
        cache.cache_clear()


def test_wigner_cache_byte_count_survives_threads(monkeypatch):
    budget = 6 * 21 * 21 * 8
    cache = numerics._wigner_matrix_cached
    cache.cache_clear()
    monkeypatch.setattr(numerics, "_CACHE_BYTES", budget)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def work(k):
            for i in range(200):
                wigner_d_matrix(HalfInt(20 - 4 * (i % 2)), 0.01 * ((7 * i + k) % 31))

        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert sum(d.nbytes for d in cache.values.values()) == cache.nbytes <= budget
    finally:
        sys.setswitchinterval(switch)
        monkeypatch.undo()
        cache.cache_clear()


def test_wigner_matrix_cached_and_readonly():
    d1 = wigner_d_matrix(HalfInt(2), 0.5)
    d2 = wigner_d_matrix(HalfInt(2), 0.5)
    assert d1 is d2
    with pytest.raises(ValueError):
        d1[0, 0] = 2.0
