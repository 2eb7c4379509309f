import math

import pytest

from merminbell.numerics import HalfInt, half_range
from merminbell.source import (
    fock_weight_distribution,
    sector_amplitude,
    sector_weight,
    sector_weight_tail,
    singlet_sign,
)


def test_amplitude_at_zero_squeezing():
    assert sector_amplitude(0, 0.0) == 1.0
    for s in (0.5, 1, 2.5):
        assert sector_amplitude(s, 0.0) == 0.0


def test_amplitude_vacuum_sector():
    for r in (0.1, 0.5, 1.3):
        assert sector_amplitude(0, r) == pytest.approx(1.0 / math.cosh(r), rel=1e-14)


def test_sector_amplitude_matches_pair_coefficient_ratio():
    # expanding the photon-pair amplitudes directly: each extra photon per
    # side multiplies the sector coefficient by tanh(r), its square by tanh^2
    r = 0.37
    t = math.tanh(r)
    for s in half_range(0, 4):
        coeff = sector_amplitude(s, r) ** 2  # state coefficient of sector s
        assert coeff == pytest.approx(t ** (2 * s.value) / math.cosh(r) ** 2, rel=1e-13)
    for s in half_range(0, 3):
        ratio = (sector_amplitude(s + HalfInt(1), r) ** 2 * sector_amplitude(s + HalfInt(1), r) ** 2) / (
            sector_amplitude(s, r) ** 2 * sector_amplitude(s, r) ** 2
        )
        assert ratio == pytest.approx(t * t, rel=1e-12)


def test_sector_weights_normalize_with_exact_tail():
    for r in (0.0, 0.2, 0.5, 0.9):
        for s_cut in (HalfInt(2), HalfInt(9), HalfInt(30)):
            partial = sum(sector_weight(HalfInt(t), r) for t in range(0, s_cut.twice + 1))
            assert partial + sector_weight_tail(s_cut, r) == pytest.approx(1.0, abs=1e-12)


def test_sector_weight_tail_decreases():
    r = 0.6
    tails = [sector_weight_tail(HalfInt(t), r) for t in range(0, 40)]
    assert all(b < a for a, b in zip(tails, tails[1:]))
    assert tails[-1] < 1e-6


def test_singlet_sign_examples():
    assert singlet_sign(0.5, 0.5) == 1
    assert singlet_sign(1, 0) == -1
    assert singlet_sign(1.5, -0.5) == 1
    with pytest.raises(ValueError):
        singlet_sign(1, 0.5)


def test_fock_weights_zero_squeezing():
    w = fock_weight_distribution(0.0)
    assert w.probabilities == {0: 1.0}
    assert w.tail_mass == 0.0


def test_fock_weights_geometric_ratio():
    r = 0.5
    w = fock_weight_distribution(r, n_max=12)
    t2 = math.tanh(r) ** 2
    assert w.probabilities[1] / w.probabilities[0] == pytest.approx(t2, rel=1e-12)
    assert t2 == pytest.approx(0.2135, abs=1e-3)
    for n in range(11):
        assert w.probabilities[n + 1] / w.probabilities[n] == pytest.approx(t2, rel=1e-12)
    assert sum(w.probabilities.values()) == pytest.approx(1.0, abs=1e-12)
    assert w.tail_mass == pytest.approx(t2 ** 13, rel=1e-12)


def test_sector_amplitude_past_cosh_overflow():
    # cosh(711) overflows a float, so ln cosh r is r - ln 2 there; below, tanh(r)^s / cosh(r) holds to the bit
    amp = sector_amplitude(1, 711)
    assert math.isfinite(amp) and amp == pytest.approx(2.0 * math.exp(-711.0), rel=1e-12)
    assert sector_amplitude(1, 700.0) == math.tanh(700.0) / math.cosh(700.0)


def test_fock_weights_window_is_capped():
    assert max(fock_weight_distribution(0.3, n_max=400).probabilities) == 400
    with pytest.raises(ValueError, match="n_max"):
        fock_weight_distribution(0.3, n_max=401)
