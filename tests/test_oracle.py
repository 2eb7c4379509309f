import ast
import cmath
import math
from pathlib import Path

import numpy as np
import pytest

import merminbell.oracle as oracle_mod
from merminbell.loss import LossConfig
from merminbell.numerics import HalfInt
from merminbell.oracle import (
    DensityMatrixLite,
    TruncatedFockState,
    apply_analyzer,
    apply_loss,
    build_epr2,
    measure_joint,
    simulate_joint,
)
from merminbell.source import sector_amplitude, singlet_sign


def test_build_epr2_vacuum():
    st = build_epr2(0.0, 0.0, cutoff=3)
    assert st.amplitudes == {(0, 0, 0, 0): pytest.approx(1.0)}
    assert st.truncation_deficit == pytest.approx(0.0, abs=1e-15)


def test_build_epr2_pairwise_correlated():
    st = build_epr2(0.4, 0.6, cutoff=3, pi_shift_on_a2=False)
    for (n1, n2, n3, n4), amp in st.amplitudes.items():
        assert n1 == n3 and n2 == n4
        want = math.tanh(0.4) ** n1 * math.tanh(0.6) ** n2 / (math.cosh(0.4) * math.cosh(0.6))
        assert amp.real == pytest.approx(want, rel=1e-13)


def test_pi_shift_produces_singlet_sectors():
    r = 0.5
    st = build_epr2(r, r, cutoff=4, pi_shift_on_a2=True)
    for t_sec in range(0, 5):  # sectors s = 0 .. 2
        s = HalfInt(t_sec)
        comps = {}
        for (n1, n2, n3, n4), amp in st.amplitudes.items():
            if n1 + n2 == t_sec:
                comps[(n1 - n2)] = amp
        norm = math.sqrt(sum(abs(a) ** 2 for a in comps.values()))
        for t_m, amp in comps.items():
            m = HalfInt(t_m)
            want = singlet_sign(s, m) / math.sqrt(t_sec + 1)
            assert amp.real / norm == pytest.approx(want, rel=1e-10)
        # sector amplitude matches the analytic weight
        assert norm == pytest.approx(
            sector_amplitude(s, r) ** 2 * math.sqrt(t_sec + 1), rel=1e-12
        )


def test_sector_schmidt_coefficients_equal():
    # within any sector the per-side reduced state is maximally mixed
    st = build_epr2(0.7, 0.7, cutoff=4, pi_shift_on_a2=True)
    for t_sec in (1, 2, 3):
        comps = [amp for (n1, n2, _, _), amp in st.amplitudes.items() if n1 + n2 == t_sec]
        mags = sorted(abs(a) for a in comps)
        assert len(mags) == t_sec + 1
        assert mags[-1] == pytest.approx(mags[0], rel=1e-12)


def test_apply_loss_identity_and_single_photon():
    st = build_epr2(0.3, 0.3, cutoff=2)
    dm = DensityMatrixLite.from_state(st)
    out = apply_loss(dm, "a1", 1.0)
    assert np.allclose(out.rho, dm.rho, atol=1e-14)

    one = TruncatedFockState(cutoff=1, amplitudes={(1, 0, 0, 0): 1.0 + 0j})
    lossy = apply_loss(one, "a1", 0.75)
    assert lossy.entry((1, 0, 0, 0), (1, 0, 0, 0)).real == pytest.approx(0.75)
    assert lossy.entry((0, 0, 0, 0), (0, 0, 0, 0)).real == pytest.approx(0.25)


def test_apply_loss_trace_and_hermiticity():
    st = build_epr2(0.5, 0.4, cutoff=3)
    dm = DensityMatrixLite.from_state(st)
    t0 = dm.trace()
    for mode, eta in (("a1", 0.7), ("a2", 0.9), ("b1", 0.55), ("b2", 1.0)):
        dm = apply_loss(dm, mode, eta)
        assert dm.trace() == pytest.approx(t0, abs=1e-12)
        assert dm.hermiticity_defect() < 1e-12


def test_loss_channel_composition():
    # two cascaded beamsplitters equal a single one with eta1*eta2
    st = build_epr2(0.6, 0.2, cutoff=3)
    a = apply_loss(apply_loss(st, "a1", 0.9), "a1", 0.7)
    b = apply_loss(st, "a1", 0.9 * 0.7)
    assert np.max(np.abs(a.rho - b.rho)) < 1e-12


def test_analyzer_identity_and_unitarity():
    st = build_epr2(0.4, 0.5, cutoff=3)
    dm = DensityMatrixLite.from_state(st)
    out = apply_analyzer(dm, "A", 0.0)
    assert np.allclose(out.rho, dm.rho, atol=1e-13)
    for side in ("A", "B"):
        rot = apply_analyzer(dm, side, 1.1)
        assert rot.trace() == pytest.approx(dm.trace(), abs=1e-12)
        assert rot.hermiticity_defect() < 1e-12


def test_analyzer_single_photon_split():
    one = TruncatedFockState(cutoff=1, amplitudes={(1, 0, 0, 0): 1.0 + 0j})
    for angle in (0.3, 1.2, 2.5):
        rot = apply_analyzer(one, "A", angle)
        p1 = rot.entry((1, 0, 0, 0), (1, 0, 0, 0)).real
        p2 = rot.entry((0, 1, 0, 0), (0, 1, 0, 0)).real
        assert p1 == pytest.approx(math.cos(angle / 2) ** 2, rel=1e-12)
        assert p2 == pytest.approx(math.sin(angle / 2) ** 2, rel=1e-12)


def test_per_side_totals_invariant_under_analyzer():
    st = build_epr2(0.5, 0.5, cutoff=3, sector_max=HalfInt(3))
    dm = DensityMatrixLite.from_state(st)
    def totals(d):
        out = {}
        for i, (n1, n2, n3, n4) in enumerate(d.basis):
            out[(n1 + n2, n3 + n4)] = out.get((n1 + n2, n3 + n4), 0.0) + d.rho[i, i].real
        return out
    before = totals(dm)
    after = totals(apply_analyzer(apply_analyzer(dm, "A", 0.9), "B", -1.3))
    for key in set(before) | set(after):
        assert after.get(key, 0.0) == pytest.approx(before.get(key, 0.0), abs=1e-12)


def test_loss_before_or_after_analyzer_equal_eta():
    # with equal per-side losses the beamsplitter position is immaterial
    st = build_epr2(0.5, 0.5, cutoff=2)
    eta = 0.8
    angle = 0.9
    before = apply_analyzer(apply_loss(apply_loss(st, "a1", eta), "a2", eta), "A", angle)
    after = apply_loss(apply_loss(apply_analyzer(st, "A", angle), "a1", eta), "a2", eta)
    da = measure_joint(before)
    db = measure_joint(after)
    keys = set(da.entries) | set(db.entries)
    for k in keys:
        assert da.entries.get(k, 0.0) == pytest.approx(db.entries.get(k, 0.0), abs=1e-10)


def test_measure_vacuum():
    st = build_epr2(0.0, 0.0, cutoff=2)
    dist = measure_joint(DensityMatrixLite.from_state(st))
    key = (HalfInt(0), HalfInt(0), HalfInt(0), HalfInt(0))
    assert dist.entries == {key: pytest.approx(1.0)}


def test_perfect_detection_supports_equal_sectors_only():
    dist = simulate_joint(0.5, LossConfig.equal_eta(1.0), 0.7, -0.3, cutoff=3)
    for (sa, _, sb, _), p in dist.entries.items():
        if abs(p) > 1e-14:
            assert sa == sb


def test_perfect_detection_anticorrelated_at_common_angle():
    # complete sectors requested: per-mode cutoff must cover 2 * sector_max
    for angle in (0.0, 0.9):
        dist = simulate_joint(
            0.4, LossConfig.equal_eta(1.0), angle, angle, cutoff=4, sector_max=HalfInt(4)
        )
        for (sa, ma, sb, mb), p in dist.entries.items():
            if p > 1e-12 and sa.twice > 0:
                assert mb == -ma, (sa, ma, sb, mb, p)


def test_trace_conserved_through_full_pipeline():
    st = build_epr2(0.5, 0.5, cutoff=3)
    dm = DensityMatrixLite.from_state(st)
    t0 = dm.trace()
    assert t0 == pytest.approx(1.0 - st.truncation_deficit, abs=1e-12)
    for mode, eta in zip(("a1", "a2", "b1", "b2"), (0.7, 0.8, 0.9, 0.6)):
        dm = apply_loss(dm, mode, eta)
        assert dm.trace() == pytest.approx(t0, abs=1e-12)
    dm = apply_analyzer(dm, "A", 1.0)
    dm = apply_analyzer(dm, "B", -0.4)
    assert dm.trace() == pytest.approx(t0, abs=1e-12)
    assert measure_joint(dm).total_mass() == pytest.approx(t0, abs=1e-12)


def _dense_loss_reference(dm, mode, eta):
    """Kraus sum with each K_k built as a dense dim x dim matrix, then K rho K^T."""
    pos = ("a1", "a2", "b1", "b2").index(mode)
    dim = len(dm.basis)
    max_n = max(t[pos] for t in dm.basis)
    new = np.zeros_like(dm.rho)
    for k in range(max_n + 1):
        if eta == 1.0 and k > 0:
            break
        kr = np.zeros((dim, dim))
        for j, t in enumerate(dm.basis):
            n = t[pos]
            if n < k:
                continue
            w = math.sqrt(math.comb(n, k)) * eta ** ((n - k) / 2.0) * (1.0 - eta) ** (k / 2.0)
            if w == 0.0:
                continue
            lowered = list(t)
            lowered[pos] = n - k
            kr[dm.index[tuple(lowered)], j] = w
        if kr.any():
            new += kr @ dm.rho @ kr.T
    return new


@pytest.mark.parametrize("sector_max", [None, HalfInt(1)], ids=["uncapped", "sector-capped"])
@pytest.mark.parametrize("eta", [0.0, 0.37, 1.0])
def test_apply_loss_matches_dense_kraus_reference(sector_max, eta):
    dm = DensityMatrixLite.from_state(build_epr2(0.5, 0.4, cutoff=2, sector_max=sector_max))
    for mode in ("a1", "a2", "b1", "b2"):
        want = _dense_loss_reference(dm, mode, eta)
        got = apply_loss(dm, mode, eta)
        assert got.rho.dtype == want.dtype
        assert np.max(np.abs(got.rho - want)) <= 1e-15
        dm = got  # the next mode sees a mixed state


def test_complex_amplitudes_stay_supported():
    base = build_epr2(0.5, 0.4, cutoff=2)
    phased = TruncatedFockState(
        cutoff=base.cutoff,
        amplitudes={
            t: a * cmath.exp(1j * (0.3 * t[0] - 0.7 * t[1] + 1.1 * t[3]))
            for t, a in base.amplitudes.items()
        },
    )
    dm = DensityMatrixLite.from_state(phased)
    assert dm.rho.dtype == np.complex128
    lossy = apply_loss(dm, "a2", 0.37)
    assert np.max(np.abs(lossy.rho - _dense_loss_reference(dm, "a2", 0.37))) <= 1e-15
    # the analyzer unitary is real, so it maps real and imaginary parts separately
    rot = apply_analyzer(lossy, "B", 0.8).rho
    parts = [apply_analyzer(DensityMatrixLite(lossy.basis, x), "B", 0.8).rho
             for x in (lossy.rho.real.copy(), lossy.rho.imag.copy())]
    assert np.max(np.abs(rot.imag)) > 1e-3
    assert np.max(np.abs(rot - (parts[0] + 1j * parts[1]))) <= 1e-14


def test_source_density_matrix_is_real():
    dm = DensityMatrixLite.from_state(build_epr2(0.5, 0.5, cutoff=3))
    assert dm.rho.dtype == np.float64
    out = apply_analyzer(apply_loss(dm, "b1", 0.6), "A", 0.4)
    assert out.rho.dtype == np.float64


def test_apply_loss_rejects_basis_not_closed_under_loss():
    dm = DensityMatrixLite([(1, 0, 0, 0)], np.ones((1, 1)))
    with pytest.raises(ValueError, match="not closed"):
        apply_loss(dm, "a1", 0.5)


def test_oracle_imports_nothing_from_the_analytic_route():
    # the oracle validates the closed forms only while it shares no spin algebra with them
    tree = ast.parse(Path(oracle_mod.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "merminbell"
        ):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            assert all(alias.name.split(".")[0] != "merminbell" for alias in node.names)
    assert names == {"LossConfig", "JointOutcomeDistribution", "HalfInt"}
