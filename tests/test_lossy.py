import dataclasses
import math

import numpy as np
import pytest

from merminbell import numerics
from merminbell.ideal import AngleTriple, ideal_correlation, ideal_mermin_sides, theta_triple
from merminbell.loss import LossConfig
from merminbell.lossy import (
    DegenerateSectorError,
    InternalConsistencyError,
    JointOutcomeDistribution,
    LossyEngine,
    TruncationPolicy,
    correlation_alt_bookkeeping,
    lossy_correlation,
    lossy_joint_distribution,
    lossy_mermin_sides,
    optimize_angles,
    sweep,
)
from merminbell.numerics import HalfInt, half_range
from merminbell.oracle import simulate_joint

S_CAP = HalfInt(4)  # matched-truncation cap (s <= 2) for oracle comparisons
CAP_POLICY = TruncationPolicy(s_start=S_CAP, max_s=S_CAP)


# -------------------------------------------------------------- basic limits


def test_vacuum_source():
    policy = TruncationPolicy(s_start=HalfInt(2), max_s=HalfInt(4))
    dist = lossy_joint_distribution(0.0, LossConfig.equal_eta(0.7), 0.4, -0.2, policy)
    assert dist.blocks[(0, 0)][0, 0] == pytest.approx(1.0, abs=1e-14)
    assert dist.total_mass() == pytest.approx(1.0, abs=1e-14)
    assert dist.converged
    assert lossy_correlation(0.0, LossConfig.equal_eta(0.7), 0.3, 0.9, None, CAP_POLICY) == 0.0


def test_degenerate_sector_raises():
    with pytest.raises(DegenerateSectorError):
        lossy_mermin_sides(HalfInt(2), 0.0, LossConfig.equal_eta(0.9), theta_triple(0.3))


def test_full_distribution_mass_plus_tail():
    policy = TruncationPolicy(s_start=HalfInt(8), max_s=HalfInt(24), rel_tol=1e-9)
    for eta in (1.0, 0.8, 0.5):
        dist = lossy_joint_distribution(0.3, LossConfig.equal_eta(eta), 0.5, -0.8, policy)
        assert dist.converged
        assert dist.total_mass() + dist.tail_bound == pytest.approx(1.0, abs=1e-6)
        assert all(p.min() >= 0.0 for p in dist.blocks.values())
        assert all(p.max() <= 1.0 for p in dist.blocks.values())


def test_unrestricted_cutoff_converges_on_mass():
    # the full distribution stops on the probability it holds, so a converged
    # run has lost no more than rel_tol to the sectors beyond its cutoff
    policy = TruncationPolicy(s_start=HalfInt(2), max_s=HalfInt(20), rel_tol=1e-6)
    dist = lossy_joint_distribution(0.5, LossConfig.equal_eta(0.8), 0.3, -0.4, policy)
    assert dist.converged
    assert dist.tail_bound <= policy.rel_tol
    assert dist.total_mass() + dist.tail_bound == pytest.approx(1.0, abs=1e-12)


def test_perfect_detection_supports_equal_sectors():
    policy = TruncationPolicy(s_start=HalfInt(6), max_s=HalfInt(8))
    dist = lossy_joint_distribution(0.4, LossConfig.equal_eta(1.0), 0.9, 0.1, policy)
    for (tsa, tsb), p in dist.blocks.items():
        if p.max() > 1e-14:
            assert tsa == tsb


# ------------------------------------------------------------- eta=1 limits


@pytest.mark.parametrize("r", [0.2, 0.5])
@pytest.mark.parametrize(
    "angles",
    [AngleTriple(0.3, -0.7, 0.1), AngleTriple(1.0, 2.0, 3.0), AngleTriple(0.8, 0.8, -0.8)],
)
def test_eta1_reduction_small(r, angles):
    eng = LossyEngine(r, LossConfig.equal_eta(1.0))
    for ts in (1, 2, 3):
        s = HalfInt(ts)
        policy = TruncationPolicy(s_start=s, max_s=s + HalfInt(4))
        got = eng.mermin_sides(s, angles, policy)
        want = ideal_mermin_sides(s, angles)
        assert got.lhs == pytest.approx(want.lhs, abs=1e-10)
        assert got.rhs == pytest.approx(want.rhs, abs=1e-10)
        assert got.converged


@pytest.mark.parametrize("s", [40, 60])
def test_eta1_reduction_large_spin(s):
    # rotation blocks from the explicit factorial sum gave lhs 255 against 7.06 at s=60
    angles = theta_triple(0.3 / s)
    rec = LossyEngine(0.3, LossConfig.equal_eta(1.0)).mermin_sides(s, angles)
    rhs = ideal_correlation(s, angles.alpha - angles.gamma) + ideal_correlation(
        s, angles.beta - angles.gamma
    )
    assert rec.converged
    assert abs(rec.rhs - rhs) < 1e-9
    assert abs(rec.lhs - ideal_mermin_sides(s, angles).lhs) < 1e-9


def test_eta1_violation_r_independent():
    angles = theta_triple(0.27)
    vals = [
        LossyEngine(r, LossConfig.equal_eta(1.0)).mermin_sides(HalfInt(2), angles).violation
        for r in (0.1, 0.4, 0.9)
    ]
    assert max(vals) - min(vals) < 1e-9


def test_conditioned_pair_probability_matches_ideal_at_eta1():
    from merminbell.ideal import ideal_pair_probability
    from merminbell.schwinger import projections

    r, alpha, beta = 0.5, 0.9, 0.25
    s = HalfInt(3)
    policy = TruncationPolicy(s_start=s, max_s=s + HalfInt(2))
    dist = lossy_joint_distribution(
        r, LossConfig.equal_eta(1.0), alpha, beta, policy, sectors=(s, s)
    )
    mass = dist.total_mass()
    for m in projections(s):
        for mp in projections(s):
            got = dist.blocks[(s.twice, s.twice)][(s + m).twice // 2, (s + mp).twice // 2] / mass
            want = ideal_pair_probability(s, m, mp, alpha - beta)
            assert got == pytest.approx(want, abs=1e-12)


# --------------------------------------------------------- oracle equivalence


@pytest.mark.parametrize("r", [0.2, 0.5])
@pytest.mark.parametrize("eta", [0.5, 0.8, 1.0])
def test_joint_matches_oracle_equal_eta(r, eta):
    loss = LossConfig.equal_eta(eta)
    eng = LossyEngine(r, loss)
    for alpha, beta in ((0.35, -0.9), (1.1, 0.4)):
        want = simulate_joint(r, loss, alpha, beta, cutoff=4, sector_max=S_CAP)
        got = eng.joint(alpha, beta, CAP_POLICY)
        assert got.largest_difference(want)[0] <= 1e-12


def test_joint_matches_oracle_unequal_eta():
    loss = LossConfig(0.9, 0.7, 0.8, 0.6)
    r = 0.5
    eng = LossyEngine(r, loss)
    want = simulate_joint(r, loss, 0.7, -0.4, cutoff=4, sector_max=S_CAP)
    got = eng.joint(0.7, -0.4, CAP_POLICY)
    assert got.largest_difference(want)[0] <= 1e-12


def test_sector_correlations_match_oracle():
    r = 0.5
    for loss in (LossConfig.equal_eta(0.8), LossConfig(0.9, 0.7, 0.8, 0.6)):
        eng = LossyEngine(r, loss)
        for alpha, beta in ((0.6, -0.9), (0.0, 1.2)):
            want = simulate_joint(r, loss, alpha, beta, cutoff=4, sector_max=S_CAP)
            for s_star in half_range(HalfInt(1), S_CAP):
                if want.sector_probability(s_star, s_star) < 1e-12:
                    continue
                c_or = want.correlation(sector=(s_star, s_star), conditioned=True)
                c_cl, p_cl, _, _ = eng.correlation(alpha, beta, s_star, CAP_POLICY)
                assert c_cl == pytest.approx(c_or, abs=1e-10)
                assert p_cl == pytest.approx(
                    want.sector_probability(s_star, s_star), abs=1e-12
                )


def test_joint_and_correlations_match_oracle_deeper_cap():
    # one deeper matched truncation (sectors through s = 5/2) to cover the
    # higher half-integer sectors as well
    cap = HalfInt(5)
    policy = TruncationPolicy(s_start=cap, max_s=cap)
    r = 0.45
    loss = LossConfig(0.85, 0.75, 0.95, 0.65)
    eng = LossyEngine(r, loss)
    want = simulate_joint(r, loss, 0.55, -1.1, cutoff=5, sector_max=cap)
    got = eng.joint(0.55, -1.1, policy)
    assert got.largest_difference(want)[0] <= 1e-12
    for s_star in half_range(HalfInt(1), cap):
        if want.sector_probability(s_star, s_star) < 1e-12:
            continue
        c_or = want.correlation(sector=(s_star, s_star), conditioned=True)
        c_cl, _, _, _ = eng.correlation(0.55, -1.1, s_star, policy)
        assert c_cl == pytest.approx(c_or, abs=1e-10)


def test_moment_route_equals_operator_route():
    # sum of m_a*m_b over the joint distribution at the same angles
    r, eta = 0.4, 0.75
    eng = LossyEngine(r, LossConfig.equal_eta(eta))
    policy = TruncationPolicy(s_start=HalfInt(8), max_s=HalfInt(20), rel_tol=1e-10)
    for alpha, beta in ((0.0, 0.0), (0.8, -0.3)):
        s_star = HalfInt(2)
        dist = eng.joint(alpha, beta, policy, sectors=(s_star, s_star))
        want = dist.correlation(sector=(s_star, s_star), conditioned=True)
        got, _, _, _ = eng.correlation(alpha, beta, s_star, policy)
        assert got == pytest.approx(want, abs=1e-9)


def test_largest_difference_visits_readouts_in_label_order():
    # missing blocks count as zeros; ties go to the first (s_a, m_a, s_b, m_b)
    a = JointOutcomeDistribution(
        blocks={(1, 1): np.array([[0.1, 0.4], [0.2, 0.0]]), (2, 0): np.array([[0.5], [0.0], [0.0]])},
        tail_bound=0.0, s_cutoff_used=HalfInt(2), converged=True,
    )
    b = JointOutcomeDistribution(
        blocks={(1, 1): np.array([[0.1, 0.0], [0.2, 0.1]]), (1, 3): np.full((2, 4), 0.5)},
        tail_bound=0.0, s_cutoff_used=HalfInt(3), converged=True,
    )
    assert a.largest_difference(b) == (0.5, (1, -1, 3, -3))
    assert b.largest_difference(a) == (0.5, (1, -1, 3, -3))
    c = JointOutcomeDistribution({(2, 0): np.array([[0.5], [0.0], [0.0]])}, 0.0, HalfInt(2), True)
    assert a.largest_difference(c) == (0.4, (1, -1, 1, 1))
    assert a.largest_difference(a) == (0.0, (1, -1, 1, -1))


def test_sector_probability_routes_agree():
    r, eta = 0.45, 0.7
    eng = LossyEngine(r, LossConfig.equal_eta(eta))
    policy = TruncationPolicy(s_start=HalfInt(10), max_s=HalfInt(20), rel_tol=1e-9)
    s_star = HalfInt(2)
    dist = eng.joint(0.4, -0.9, policy, sectors=(s_star, s_star))
    _, p_corr, _, _ = eng.correlation(0.4, -0.9, s_star, policy)
    assert dist.total_mass() == pytest.approx(p_corr, rel=1e-9)


# ----------------------------------------------------------------- truncation


def test_monotone_truncation():
    r, eta = 0.6, 0.7
    s_star = HalfInt(2)
    eng = LossyEngine(r, LossConfig.equal_eta(eta))
    rel_tol = 1e-6
    policy = TruncationPolicy(s_start=HalfInt(6), max_s=HalfInt(40), rel_tol=rel_tol)
    dist = eng.joint(0.5, -0.5, policy, sectors=(s_star, s_star))
    assert dist.converged
    # extending the cutoff must not move converged entries beyond tolerance
    wider = TruncationPolicy(
        s_start=dist.s_cutoff_used + HalfInt(8),
        max_s=dist.s_cutoff_used + HalfInt(8),
    )
    dist2 = eng.joint(0.5, -0.5, wider, sectors=(s_star, s_star))
    for key, p in dist.blocks.items():
        p2 = dist2.blocks[key]
        assert np.all(np.abs(p2 - p) <= rel_tol * np.maximum(np.abs(p2), 1e-300) * 4)


def test_one_kernel_serves_every_angle():
    r, loss, s = 0.3, LossConfig(0.9, 0.8, 0.85, 0.75), HalfInt(4)
    triples = [theta_triple(0.2), AngleTriple(0.4, -1.1, 0.7), AngleTriple(2.0, -1.2, 0.3)]
    eng = LossyEngine(r, loss)
    recs = [eng.mermin_sides(s, angles) for angles in triples]
    assert len({rec.s_cutoff_used for rec in recs}) == 1
    for angles, rec in zip(triples, recs):
        assert LossyEngine(r, loss).mermin_sides(s, angles) == rec


def test_one_unrestricted_kernel_set_serves_every_angle():
    policy = TruncationPolicy(s_start=HalfInt(2), max_s=HalfInt(20), rel_tol=1e-6)
    for loss in (LossConfig.equal_eta(0.8), LossConfig(0.9, 0.7, 0.8, 0.6)):
        eng = LossyEngine(0.5, loss)
        dists = [eng.joint(alpha, beta, policy) for alpha, beta in ((0.3, -0.4), (0.0, 0.0))]
        assert dists[0].s_cutoff_used == dists[1].s_cutoff_used
        for (alpha, beta), dist in zip(((0.3, -0.4), (0.0, 0.0)), dists):
            again = LossyEngine(0.5, loss).joint(alpha, beta, policy)
            assert again.blocks.keys() == dist.blocks.keys()
            assert all(np.array_equal(again.blocks[k], dist.blocks[k]) for k in dist.blocks)
            assert (again.tail_bound, again.s_cutoff_used, again.converged) == (
                dist.tail_bound, dist.s_cutoff_used, dist.converged
            )


def test_cutoff_step_bounded_by_sector_probability_step():
    # each source sector adds a positive semidefinite piece whose trace is its
    # share of the sector probability, so no joint probability moves further
    rng = np.random.default_rng(7)
    for loss in (LossConfig.equal_eta(0.7), LossConfig(0.9, 0.6, 0.8, 0.75)):
        eng = LossyEngine(0.6, loss)
        for sectors in ((HalfInt(4), HalfInt(4)), (HalfInt(3), HalfInt(5))):
            for n in range(5, 15, 3):
                lo = TruncationPolicy(s_start=HalfInt(n), max_s=HalfInt(n))
                hi = TruncationPolicy(s_start=HalfInt(n + 2), max_s=HalfInt(n + 2))
                for alpha, beta in rng.uniform(-math.pi, math.pi, (3, 2)):
                    p_lo = eng.joint(alpha, beta, lo, sectors=sectors)
                    p_hi = eng.joint(alpha, beta, hi, sectors=sectors)
                    step = p_hi.total_mass() - p_lo.total_mass()
                    moved = p_hi.largest_difference(p_lo)[0]
                    assert moved <= step + 1e-15


def test_nonconvergence_flagged_not_raised():
    policy = TruncationPolicy(s_start=HalfInt(2), max_s=HalfInt(3), rel_tol=1e-12)
    dist = lossy_joint_distribution(
        0.9, LossConfig.equal_eta(0.5), 0.3, -0.3, policy, sectors=(HalfInt(1), HalfInt(1))
    )
    assert not dist.converged
    assert dist.tail_bound > 0


def test_violation_decreasing_in_eta():
    angles, _ = optimize_angles(HalfInt(2), 0.5, LossConfig.equal_eta(1.0))
    vals = []
    for eta in (1.0, 0.9, 0.8):
        eng = LossyEngine(0.5, LossConfig.equal_eta(eta))
        vals.append(eng.mermin_sides(HalfInt(2), angles).violation)
    assert vals[0] > vals[1] > vals[2]


# -------------------------------------------------------------------- sweeps


def test_sweep_singleton_matches_direct_call():
    recs = sweep([HalfInt(2)], [0.4], [0.9], [0.3])
    assert len(recs) == 1
    rec = recs[0]
    direct = lossy_mermin_sides(HalfInt(2), 0.4, LossConfig.equal_eta(0.9), theta_triple(0.3))
    assert rec.lhs == direct.lhs
    assert rec.rhs == direct.rhs
    assert rec.violation == direct.violation


def test_sweep_grid_equals_union_of_singletons():
    grid = sweep([HalfInt(1), HalfInt(2)], [0.3], [1.0, 0.8], [0.2, 0.5])
    k = 0
    for s in (HalfInt(1), HalfInt(2)):
        for eta in (1.0, 0.8):
            for theta in (0.2, 0.5):
                single = sweep([s], [0.3], [eta], [theta])[0]
                assert grid[k].lhs == single.lhs
                assert grid[k].rhs == single.rhs
                k += 1


def test_sweep_flags_failures():
    recs = sweep([HalfInt(1)], [0.0], [0.9], [0.3])
    assert len(recs) == 1
    assert recs[0].error is not None
    assert not recs[0].converged


# ----------------------------------------------------------------- optimizer


def test_optimizer_matches_family_scan_at_eta1():
    # dense scan over the one-parameter family as the independent reference
    s = HalfInt(2)
    thetas = np.linspace(1e-4, 1.0, 20001)
    vals = [ideal_mermin_sides(s, theta_triple(float(t))).violation for t in thetas]
    i = int(np.argmax(vals))
    scan_theta, scan_val = float(thetas[i]), float(vals[i])
    angles, rec = optimize_angles(s, 0.3, LossConfig.equal_eta(1.0))
    assert rec.violation >= scan_val - 1e-8
    assert rec.violation == pytest.approx(scan_val, abs=1e-6)
    # optimizer's triple reduces to the family's angle distance
    got_theta = (angles.alpha - angles.beta - math.pi) / 2.0
    assert abs(got_theta - scan_theta) < 1e-3


def test_optimum_invariant_under_global_rotation():
    s = HalfInt(1)
    eng = LossyEngine(0.4, LossConfig.equal_eta(1.0))
    base = theta_triple(0.27)
    v0 = eng.mermin_sides(s, base).violation
    for c in (0.5, -1.3):
        shifted = AngleTriple(base.alpha + c, base.beta + c, base.gamma + c)
        assert eng.mermin_sides(s, shifted).violation == pytest.approx(v0, abs=1e-9)


def test_optimal_angle_shifts_slightly_with_loss():
    s = HalfInt(1)
    a1, rec1 = optimize_angles(s, 0.5, LossConfig.equal_eta(1.0))
    a2, rec2 = optimize_angles(s, 0.5, LossConfig.equal_eta(0.8))
    assert rec1.converged and rec2.converged
    shift = abs((a1.alpha - a1.gamma) - (a2.alpha - a2.gamma))
    # reported, not asserted to a specific value; just require both optima valid
    assert rec2.violation < rec1.violation
    assert shift < 0.5


@pytest.mark.parametrize("convention", ["conditioned", "unconditioned"])
@pytest.mark.parametrize("eta", [1.0, 0.7])
@pytest.mark.parametrize("ts", [1, 2, 3, 4, 6, 12])
def test_theta_curve_is_trigonometric_polynomial_of_degree_4s(ts, eta, convention):
    # twice the samples the equal-loss optimizer reads: every coefficient
    # above degree 4s = 2 * ts must vanish
    s = HalfInt(ts)
    n = 8 * ts + 1
    eng = LossyEngine(0.3, LossConfig.equal_eta(eta))
    f = np.array(
        [eng.mermin_sides(s, theta_triple(2 * math.pi * k / n), convention=convention).violation for k in range(n)]
    )
    coef = np.abs(np.fft.rfft(f)) / n
    assert coef[2 * ts + 1 :].max() <= 1e-12 * np.abs(f).max()


@pytest.mark.parametrize(
    "s,r,eta,convention,golden",
    [
        (0.5, 0.3, 1.0, "conditioned", 0.12499999999999763),
        (0.5, 0.3, 0.85, "conditioned", 0.12357338424345524),
        (1.5, 0.5, 1.0, "conditioned", 0.21629579569065727),
        (1.5, 0.5, 0.85, "conditioned", 0.1848862492298305),
        (3, 0.3, 1.0, "conditioned", 0.34505438780552616),
        (3, 0.3, 0.85, "conditioned", 0.2690802942725156),
        (1.5, 0.4, 0.85, "unconditioned", 0.0006902112923231867),
    ],
)
def test_equal_loss_optimum_is_canonical_and_meets_golden(s, r, eta, convention, golden):
    # golden values: the 3-D multi-start coordinate descent this search replaced
    angles, rec = optimize_angles(s, r, LossConfig.equal_eta(eta), convention=convention)
    assert rec.violation >= golden - 1e-10
    assert abs(rec.violation - golden) <= 1e-8
    theta = angles.alpha - math.pi / 2
    assert 0 < theta <= math.pi / 2
    assert angles.gamma == 0.0 and angles.beta == -angles.alpha
    mirror = LossyEngine(r, LossConfig.equal_eta(eta)).mermin_sides(
        s, theta_triple(math.pi - theta), convention=convention
    )
    assert abs(mirror.violation - rec.violation) <= 1e-12


# ------------------------------------------------------------- conventions


def test_unconditioned_convention_scales_by_sector_weight():
    from merminbell.source import sector_weight

    r = 0.4
    s = HalfInt(2)
    angles = theta_triple(0.27)
    eng = LossyEngine(r, LossConfig.equal_eta(1.0))
    cond = eng.mermin_sides(s, angles, convention="conditioned")
    uncond = eng.mermin_sides(s, angles, convention="unconditioned")
    w = sector_weight(s, r)
    assert uncond.lhs == pytest.approx(cond.lhs * w, rel=1e-10)
    assert uncond.rhs == pytest.approx(cond.rhs * w, rel=1e-10)


# ---------------------------------------------------- exponent adjudication


def test_alt_bookkeeping_rejected_by_oracle():
    r, alpha, beta = 0.4, 0.7, -0.4
    cap = HalfInt(2)
    policy = TruncationPolicy(s_start=cap, max_s=cap)
    for eta in (0.5, 0.8):
        loss = LossConfig.equal_eta(eta)
        reference = simulate_joint(r, loss, alpha, beta, cutoff=4, sector_max=cap).correlation()
        derived, _, _, _ = LossyEngine(r, loss).correlation(alpha, beta, None, policy)
        alt = correlation_alt_bookkeeping(r, eta, alpha, beta, cap)
        assert derived == pytest.approx(reference, abs=1e-10)
        assert abs(alt - reference) > 1e-3


@pytest.mark.parametrize(
    "r,eta,alpha,beta,cap,want",
    [
        (0.4, 0.5, 0.7, -0.4, 2, 0.19126043498460632),
        (0.4, 0.8, 0.7, -0.4, 2, 279.6758130058654),
        (0.3, 0.6, 1.1, 0.2, 3, 0.1934448572001895),
        (0.6, 0.9, -0.5, 2.0, 4, -1035897224405.5039),
        (0.2, 0.3, 0.3, 0.9, 1.5, 0.00031487391130976665),
    ],
)
def test_alt_bookkeeping_golden_values(r, eta, alpha, beta, cap, want):
    # recorded from the literal seven-deep loop transcription of the form
    got = correlation_alt_bookkeeping(r, eta, alpha, beta, HalfInt.of(cap))
    assert got == pytest.approx(want, rel=1e-12)


def test_non_orthogonal_rotation_basis_is_an_internal_error(monkeypatch):
    eigh = np.linalg.eigh

    def perturbed(a):
        w, u = eigh(a)
        return w, u * (1.0 + 1e-8)

    numerics._sx_eigenvectors.cache_clear()
    numerics._wigner_matrix_cached.cache_clear()
    monkeypatch.setattr(numerics.np.linalg, "eigh", perturbed)
    try:
        engine = LossyEngine(0.3, LossConfig.equal_eta(0.9))
        with pytest.raises(InternalConsistencyError, match="orthogonality defect"):
            engine.mermin_sides(HalfInt(2), theta_triple(0.2))
        [rec] = sweep([HalfInt(2)], [0.3], [0.9], [0.2])
        assert rec.error.startswith("InternalConsistencyError")
        assert math.isnan(rec.violation)
    finally:
        monkeypatch.undo()
        numerics._sx_eigenvectors.cache_clear()
        numerics._wigner_matrix_cached.cache_clear()
    assert engine.mermin_sides(HalfInt(2), theta_triple(0.2)).error is None

    # an angle curve of higher degree than 4s fails the optimizer's interpolant check
    exact = LossyEngine.mermin_sides

    def rippled(self, *args, **kwargs):
        rec = exact(self, *args, **kwargs)
        return dataclasses.replace(rec, violation=rec.violation + 1e-6 * math.cos(40 * rec.angles.alpha))

    monkeypatch.setattr(LossyEngine, "mermin_sides", rippled)
    with pytest.raises(InternalConsistencyError, match="not a trigonometric polynomial"):
        optimize_angles(HalfInt(2), 0.3, LossConfig.equal_eta(0.9))
