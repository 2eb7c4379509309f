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
    KrausBranches,
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


def _rho(state):
    """The density matrix sum_b psi_b psi_b^dagger over ``state.basis``."""
    flat = state.psi.reshape(len(state.psi), -1)
    return flat.T @ flat.conj()


def _trace(state):
    return float(np.sum(np.abs(state.psi) ** 2))


def _entry(state, ket, bra):
    index = {t: i for i, t in enumerate(state.basis)}
    return _rho(state)[index[ket], index[bra]]


def test_apply_loss_identity_and_single_photon():
    state = KrausBranches.from_state(build_epr2(0.3, 0.3, cutoff=2))
    out = apply_loss(state, "a1", 1.0)
    assert np.array_equal(out.psi, state.psi) and out.psi is not state.psi

    one = TruncatedFockState(cutoff=1, amplitudes={(1, 0, 0, 0): 1.0 + 0j})
    lossy = apply_loss(one, "a1", 0.75)
    assert _entry(lossy, (1, 0, 0, 0), (1, 0, 0, 0)).real == pytest.approx(0.75)
    assert _entry(lossy, (0, 0, 0, 0), (0, 0, 0, 0)).real == pytest.approx(0.25)
    assert _entry(lossy, (1, 0, 0, 0), (0, 0, 0, 0)) == 0.0  # the branches never interfere


def test_apply_loss_preserves_trace():
    state = KrausBranches.from_state(build_epr2(0.5, 0.4, cutoff=3))
    t0 = _trace(state)
    for mode, eta in (("a1", 0.7), ("a2", 0.9), ("b1", 0.55), ("b2", 1.0)):
        state = apply_loss(state, mode, eta)
        assert _trace(state) == pytest.approx(t0, abs=1e-12)


def test_loss_channel_composition():
    # two cascaded beamsplitters equal a single one with eta1*eta2
    st = build_epr2(0.6, 0.2, cutoff=3)
    a = apply_loss(apply_loss(st, "a1", 0.9), "a1", 0.7)
    b = apply_loss(st, "a1", 0.9 * 0.7)
    assert np.max(np.abs(_rho(a) - _rho(b))) < 1e-12


def test_analyzer_identity_and_unitarity():
    state = KrausBranches.from_state(build_epr2(0.4, 0.5, cutoff=3))
    out = apply_analyzer(state, "A", 0.0)
    assert np.allclose(out.psi, state.psi, atol=1e-13)
    for side in ("A", "B"):
        rot = apply_analyzer(state, side, 1.1)
        assert _trace(rot) == pytest.approx(_trace(state), abs=1e-12)


def test_analyzer_single_photon_split():
    one = TruncatedFockState(cutoff=1, amplitudes={(1, 0, 0, 0): 1.0 + 0j})
    for angle in (0.3, 1.2, 2.5):
        rot = apply_analyzer(one, "A", angle)
        p1 = _entry(rot, (1, 0, 0, 0), (1, 0, 0, 0)).real
        p2 = _entry(rot, (0, 1, 0, 0), (0, 1, 0, 0)).real
        assert p1 == pytest.approx(math.cos(angle / 2) ** 2, rel=1e-12)
        assert p2 == pytest.approx(math.sin(angle / 2) ** 2, rel=1e-12)


def test_per_side_totals_invariant_under_analyzer():
    state = KrausBranches.from_state(build_epr2(0.5, 0.5, cutoff=3, sector_max=HalfInt(3)))
    def totals(s):
        out = {}
        for (n1, n2, n3, n4), p in zip(s.basis, _rho(s).diagonal().real):
            out[(n1 + n2, n3 + n4)] = out.get((n1 + n2, n3 + n4), 0.0) + p
        return out
    before = totals(state)
    after = totals(apply_analyzer(apply_analyzer(state, "A", 0.9), "B", -1.3))
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
    assert da.largest_difference(db)[0] <= 1e-10


def test_measure_vacuum():
    st = build_epr2(0.0, 0.0, cutoff=2)
    dist = measure_joint(KrausBranches.from_state(st))
    assert dist.blocks.keys() == {(0, 0)}
    assert dist.blocks[(0, 0)][0, 0] == pytest.approx(1.0)


def test_perfect_detection_supports_equal_sectors_only():
    dist = simulate_joint(0.5, LossConfig.equal_eta(1.0), 0.7, -0.3, cutoff=3)
    for (tsa, tsb), p in dist.blocks.items():
        if np.abs(p).max() > 1e-14:
            assert tsa == tsb


def test_perfect_detection_anticorrelated_at_common_angle():
    # complete sectors requested: per-mode cutoff must cover 2 * sector_max
    for angle in (0.0, 0.9):
        dist = simulate_joint(
            0.4, LossConfig.equal_eta(1.0), angle, angle, cutoff=4, sector_max=HalfInt(4)
        )
        for (tsa, tsb), p in dist.blocks.items():
            for i, j in np.argwhere(p > 1e-12):
                if tsa > 0:
                    assert 2 * j - tsb == tsa - 2 * i, (tsa, tsb, i, j, p[i, j])


def test_trace_conserved_through_full_pipeline():
    st = build_epr2(0.5, 0.5, cutoff=3)
    state = KrausBranches.from_state(st)
    t0 = _trace(state)
    assert t0 == pytest.approx(1.0 - st.truncation_deficit, abs=1e-12)
    for mode, eta in zip(("a1", "a2", "b1", "b2"), (0.7, 0.8, 0.9, 0.6)):
        state = apply_loss(state, mode, eta)
        assert _trace(state) == pytest.approx(t0, abs=1e-12)
    state = apply_analyzer(state, "A", 1.0)
    state = apply_analyzer(state, "B", -0.4)
    assert _trace(state) == pytest.approx(t0, abs=1e-12)
    assert measure_joint(state).total_mass() == pytest.approx(t0, abs=1e-12)


def _dense_loss_reference(basis, rho, mode, eta):
    """Kraus sum with each K_k built as a dense dim x dim matrix, then K rho K^dagger."""
    pos = ("a1", "a2", "b1", "b2").index(mode)
    index = {t: i for i, t in enumerate(basis)}
    dim = len(basis)
    max_n = max(t[pos] for t in basis)
    new = np.zeros_like(rho)
    for k in range(max_n + 1):
        if eta == 1.0 and k > 0:
            break
        kr = np.zeros((dim, dim))
        for j, t in enumerate(basis):
            n = t[pos]
            if n < k:
                continue
            w = math.sqrt(math.comb(n, k)) * eta ** ((n - k) / 2.0) * (1.0 - eta) ** (k / 2.0)
            if w == 0.0:
                continue
            lowered = list(t)
            lowered[pos] = n - k
            kr[index[tuple(lowered)], j] = w
        if kr.any():
            new += kr @ rho @ kr.T
    return new


@pytest.mark.parametrize("sector_max", [None, HalfInt(1)], ids=["uncapped", "sector-capped"])
@pytest.mark.parametrize("eta", [0.0, 0.37, 1.0])
def test_apply_loss_matches_dense_kraus_reference(sector_max, eta):
    state = KrausBranches.from_state(build_epr2(0.5, 0.4, cutoff=2, sector_max=sector_max))
    for mode in ("a1", "a2", "b1", "b2"):
        want = _dense_loss_reference(state.basis, _rho(state), mode, eta)
        got = apply_loss(state, mode, eta)
        assert got.psi.dtype == want.dtype
        assert np.max(np.abs(_rho(got) - want)) <= 1e-15
        state = got  # the next mode sees a mixed state


def test_complex_amplitudes_stay_supported():
    base = build_epr2(0.5, 0.4, cutoff=2)
    phased = TruncatedFockState(
        cutoff=base.cutoff,
        amplitudes={
            t: a * cmath.exp(1j * (0.3 * t[0] - 0.7 * t[1] + 1.1 * t[3]))
            for t, a in base.amplitudes.items()
        },
    )
    state = KrausBranches.from_state(phased)
    assert state.psi.dtype == np.complex128
    lossy = apply_loss(state, "a2", 0.37)
    assert np.max(np.abs(_rho(lossy) - _dense_loss_reference(state.basis, _rho(state), "a2", 0.37))) <= 1e-15
    # the analyzer unitary is real, so it maps real and imaginary parts separately
    rot = apply_analyzer(lossy, "B", 0.8).psi
    parts = [apply_analyzer(KrausBranches(lossy.sides, x), "B", 0.8).psi
             for x in (lossy.psi.real.copy(), lossy.psi.imag.copy())]
    assert np.max(np.abs(rot.imag)) > 1e-3
    assert np.max(np.abs(rot - (parts[0] + 1j * parts[1]))) <= 1e-14


def _dense_analyzer_reference(basis, rho, side, angle):
    """Analyzer unitary built over every pair of four-mode basis states, then u rho u^T."""
    lead, other = (0, 1) if side == "A" else (3, 2)
    index = {t: i for i, t in enumerate(basis)}
    u = np.zeros((len(basis), len(basis)))
    for j, t in enumerate(basis):
        for kf, kg, w in oracle_mod._rotation_coeffs(t[lead], t[other], angle):
            out = list(t)
            out[lead], out[other] = kf, kg
            u[index[tuple(out)], j] += w
    return u @ rho @ u.T


@pytest.mark.parametrize("sector_max", [None, HalfInt(3)], ids=["uncapped", "sector-capped"])
@pytest.mark.parametrize("side", ["A", "B"])
def test_apply_analyzer_matches_dense_reference(sector_max, side):
    state = KrausBranches.from_state(build_epr2(0.5, 0.4, cutoff=3, sector_max=sector_max))
    state = apply_loss(apply_loss(state, "a2", 0.7), "b1", 0.6)
    # the per-side product sums in another order than the dense one
    got = _rho(apply_analyzer(state, side, 0.77))
    assert np.max(np.abs(got - _dense_analyzer_reference(state.basis, _rho(state), side, 0.77))) <= 1e-15


def _side_states(total):
    return tuple((i, j) for i in range(total + 1) for j in range(total + 1 - i))


def _random_branches(seed):
    """Three random branches over 10 states on A and 3 on B: a swapped side axis cannot pass unnoticed."""
    sides = _side_states(3), _side_states(1)
    psi = np.random.default_rng(seed).standard_normal((3, len(sides[0]), len(sides[1])))
    return KrausBranches(sides, psi / np.linalg.norm(psi))


def _matches_dense_references(state, tol):
    for mode, eta in zip(("a1", "a2", "b1", "b2"), (0.37, 0.8, 0.55, 0.0)):
        got = _rho(apply_loss(state, mode, eta))
        assert np.max(np.abs(got - _dense_loss_reference(state.basis, _rho(state), mode, eta))) <= tol, mode
    for side in ("A", "B"):
        got = _rho(apply_analyzer(state, side, 0.77))
        assert np.max(np.abs(got - _dense_analyzer_reference(state.basis, _rho(state), side, 0.77))) <= tol, side


def test_per_side_channels_match_dense_references_with_unequal_sides():
    _matches_dense_references(_random_branches(7), 1e-15)


def _random_setting(rng):
    """A small source, its four efficiencies, two angles and a random order of the six channels."""
    r = float(rng.choice([0.0, rng.uniform(0.1, 0.9)], p=[0.1, 0.9]))
    etas = [float(rng.choice([0.0, 1.0, rng.uniform()], p=[0.15, 0.15, 0.7])) for _ in range(4)]
    cap = (None, HalfInt(2), HalfInt(3))[rng.integers(3)]
    st = build_epr2(r, r, cutoff=2 if cap is None else cap.twice, sector_max=cap)
    if rng.integers(2):
        phase = rng.uniform(-math.pi, math.pi, 4)
        st = TruncatedFockState(st.cutoff, {t: a * cmath.exp(1j * float(phase @ t)) for t, a in st.amplitudes.items()})
    channels = [(apply_loss, mode, eta) for mode, eta in zip(("a1", "a2", "b1", "b2"), etas)]
    channels += [(apply_analyzer, side, float(rng.uniform(-math.pi, math.pi))) for side in ("A", "B")]
    return st, [channels[i] for i in rng.permutation(6)]


def test_seeded_channel_sequences_match_dense_references():
    rng = np.random.default_rng(2024)
    late_losses = 0
    for _ in range(24):
        st, channels = _random_setting(rng)
        state = KrausBranches.from_state(st)
        rho, t0 = _rho(state), st.norm_sq()
        for i, (channel, target, value) in enumerate(channels):
            reference = _dense_loss_reference if channel is apply_loss else _dense_analyzer_reference
            want = reference(state.basis, rho, target, value)
            state = channel(state, target, value)
            rho = _rho(state)
            assert np.max(np.abs(rho - want)) <= 1e-14, (channel.__name__, target, value)
            assert _trace(state) == pytest.approx(t0, abs=1e-14)
            assert state.psi.reshape(len(state.psi), -1).any(axis=1).all()  # no all-zero branch kept
            late_losses += channel is apply_loss and any(c is apply_analyzer for c, _, _ in channels[:i])
        assert measure_joint(state).total_mass() == pytest.approx(t0, abs=1e-14)
    assert late_losses > 0


def _pipeline_by_hand(r, loss, alpha, beta, cutoff, sector_max):
    state = KrausBranches.from_state(build_epr2(r, r, cutoff, sector_max=sector_max))
    for mode, eta in zip(("a1", "a2", "b1", "b2"), loss.etas()):
        state = apply_loss(state, mode, eta)
    return measure_joint(apply_analyzer(apply_analyzer(state, "A", alpha), "B", beta))


def _same_blocks(got, want):
    return got.blocks.keys() == want.blocks.keys() and all(
        np.array_equal(got.blocks[k], want.blocks[k]) for k in want.blocks
    )


def test_lossy_state_cache_serves_every_angle_pair():
    loss, cap = LossConfig(0.9, 0.7, 0.8, 0.6), HalfInt(2)
    hits = oracle_mod._lossy_state.cache_info().hits
    for alpha, beta in ((0.6, -0.9), (1.3, 0.2), (0.6, -0.9)):
        got = simulate_joint(0.4, loss, alpha, beta, cutoff=4, sector_max=cap)
        assert _same_blocks(got, _pipeline_by_hand(0.4, loss, alpha, beta, 4, cap))
    assert oracle_mod._lossy_state.cache_info().hits - hits >= 2
    cached = oracle_mod._lossy_state(0.4, loss.etas(), 4, cap)
    with pytest.raises(ValueError, match="read-only"):
        cached.psi[0, 0, 0] = 0.5


def test_lossy_state_cache_never_returns_another_setting():
    settings = [
        (0.4, LossConfig(0.9, 0.7, 0.8, 0.6)),
        (0.4, LossConfig(0.9, 0.7, 0.6, 0.8)),
        (0.5, LossConfig(0.9, 0.7, 0.6, 0.8)),
        (0.4, LossConfig(0.9, 0.7, 0.8, 0.6)),
    ]
    results = []
    for r, loss in settings:
        got = simulate_joint(r, loss, 0.6, -0.9, cutoff=3, sector_max=HalfInt(2))
        assert _same_blocks(got, _pipeline_by_hand(r, loss, 0.6, -0.9, 3, HalfInt(2)))
        results.append(got)
    assert not any(_same_blocks(results[i], results[i + 1]) for i in range(3))


def test_apply_analyzer_rejects_basis_not_closed_under_rotation():
    with pytest.raises(ValueError, match="closed"):
        apply_analyzer(KrausBranches((((1, 0),), ((0, 0),)), np.ones((1, 1, 1))), "A", 0.4)


def test_channels_hand_on_the_side_bases():
    state = KrausBranches.from_state(build_epr2(0.5, 0.4, cutoff=2))
    out = apply_analyzer(apply_loss(state, "a1", 0.6), "B", 0.3)
    assert out.sides is state.sides
    assert out.basis == [a + b for a in out.sides[0] for b in out.sides[1]]
    assert len(out.basis) == out.psi[0].size


def test_source_amplitudes_are_real():
    state = KrausBranches.from_state(build_epr2(0.5, 0.5, cutoff=3))
    assert state.psi.dtype == np.float64
    out = apply_analyzer(apply_loss(state, "b1", 0.6), "A", 0.4)
    assert out.psi.dtype == np.float64


def test_apply_loss_copies_only_counts_a_nonzero_amplitude_holds(monkeypatch):
    # the uncapped source at cutoff 4 holds at most 4 photons in a mode, while its side basis allows 8
    state = KrausBranches.from_state(build_epr2(0.3, 0.3, cutoff=4))
    assert max(n1 for n1, _ in state.sides[0]) == 8
    ks, weights = [], oracle_mod._loss_weights
    monkeypatch.setattr(oracle_mod, "_loss_weights", lambda eta, k, n: ks.append(k) or weights(eta, k, n))
    lossy = apply_loss(state, "a1", 0.6)
    assert ks == [0, 1, 2, 3, 4] and len(lossy.psi) == 5
    ks.clear()
    apply_loss(apply_loss(state, "b2", 0.0), "b2", 0.5)  # the second loss finds b2 empty
    assert ks == [0, 1, 2, 3, 4, 0]


def test_apply_loss_rejects_basis_not_closed_under_loss():
    state = KrausBranches((((1, 0),), ((0, 0),)), np.ones((1, 1, 1)))
    with pytest.raises(ValueError, match="not closed"):
        apply_loss(state, "a1", 0.5)


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


def _oracle_caches():
    return {name: f for name, f in vars(oracle_mod).items() if hasattr(f, "cache_info")}


def test_every_oracle_cache_is_bounded_over_a_many_angle_sweep():
    caches = _oracle_caches()
    assert {"_lossy_state", "_rotation_block", "_lowering_maps", "_readout_cells"} <= caches.keys()
    assert all(f.cache_info().maxsize is not None for f in caches.values())
    loss = LossConfig(0.9, 0.7, 0.8, 0.6)
    for i in range(80):  # 160 distinct (side, angle) keys over two bases
        simulate_joint(0.3 + 0.1 * (i % 2), loss, 0.01 * i, -0.013 * i, cutoff=1 + i % 2)
    for name, f in caches.items():
        info = f.cache_info()
        assert info.currsize <= info.maxsize, name
    assert caches["_rotation_block"].cache_info().currsize == caches["_rotation_block"].cache_info().maxsize


def test_warm_caches_serve_another_basis_without_mixing_it_up():
    # warm on the equal-sided source basis, then the 10 x 3 basis at the same angle and eta
    warm = apply_loss(KrausBranches.from_state(build_epr2(0.5, 0.4, cutoff=2)), "b1", 0.6)
    for side in ("A", "B"):
        apply_analyzer(warm, side, 0.77)
    for mode, eta in zip(("a1", "a2", "b1", "b2"), (0.37, 0.8, 0.55, 0.0)):
        apply_loss(warm, mode, eta)
    _matches_dense_references(_random_branches(11), 1e-15)


def test_cached_side_operators_are_read_only():
    states = _side_states(2)
    n, maps = oracle_mod._lowering_maps(states, 1)
    _, cells = oracle_mod._readout_cells((states, states))
    for arr in (oracle_mod._rotation_block(states, 0, 0.4), n, *maps[0], cells):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1


def test_cold_and_warm_channels_agree_bit_for_bit():
    state = KrausBranches.from_state(build_epr2(0.5, 0.4, cutoff=3))

    def run():
        out = apply_loss(apply_loss(state, "a2", 0.7), "b1", 0.55)
        out = apply_analyzer(apply_analyzer(out, "A", 0.9), "B", -1.3)
        return out.psi, measure_joint(out)

    for f in _oracle_caches().values():
        f.cache_clear()
    cold_psi, cold_joint = run()
    warm_psi, warm_joint = run()
    assert oracle_mod._rotation_block.cache_info().hits >= 2
    assert np.array_equal(cold_psi, warm_psi)
    assert _same_blocks(warm_joint, cold_joint)
