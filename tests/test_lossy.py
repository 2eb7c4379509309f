import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from merminbell import lossy, numerics
from merminbell.ideal import AngleTriple, ideal_correlation, ideal_mermin_sides, theta_triple
from merminbell.loss import LossConfig, log_weight_table
from merminbell.lossy import (
    DegenerateSectorError,
    InternalConsistencyError,
    JointOutcomeDistribution,
    LossyEngine,
    TruncationPolicy,
    _descent_lines,
    correlation_alt_bookkeeping,
    optimize_angles,
    sweep,
)
from merminbell.numerics import HalfInt, half_range
from merminbell.oracle import simulate_joint
from merminbell.source import sector_weight_tail

S_CAP = HalfInt(4)  # matched-truncation cap (s <= 2) for oracle comparisons
CAP_POLICY = TruncationPolicy(S_CAP, 0.0)  # one pass through every source sector up to the cap


# -------------------------------------------------------------- basic limits


def test_vacuum_source():
    dist = LossyEngine(0.0, LossConfig.equal_eta(0.7), TruncationPolicy(HalfInt(4))).joint(0.4, -0.2)
    assert dist.blocks[(0, 0)][0, 0] == pytest.approx(1.0, abs=1e-14)
    assert dist.total_mass() == pytest.approx(1.0, abs=1e-14)
    assert dist.converged
    assert LossyEngine(0.0, LossConfig.equal_eta(0.7), CAP_POLICY).joint(0.3, 0.9).correlation() == 0.0
    assert LossyEngine(0.0, LossConfig.equal_eta(0.7)).correlation(0.3, 0.9, None)[0] == 0.0


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda r, loss: LossyEngine(r, loss).mermin_sides(HalfInt(2), theta_triple(0.3)),
        lambda r, loss: LossyEngine(r, loss).mermin_sides(HalfInt(2), theta_triple(0.3), convention="unconditioned"),
        lambda r, loss: LossyEngine(r, loss).correlation(0.3, -0.7, HalfInt(2)),
        lambda r, loss: optimize_angles(HalfInt(2), r, loss),
    ],
    ids=["conditioned", "unconditioned", "correlation", "optimize"],
)
@pytest.mark.parametrize("loss", [LossConfig.equal_eta(0.9), LossConfig(0.9, 0.7, 0.85, 0.6)], ids=["equal", "unequal"])
def test_degenerate_sector_raises(evaluate, loss):
    # the vacuum source puts nothing in s = 1; every post-selected route says so the same way
    with pytest.raises(DegenerateSectorError, match="sector s=1 has probability 0.000e"):
        evaluate(0.0, loss)


def test_sector_below_its_source_weight_bound_raises_before_any_build(monkeypatch):
    # at r = 177.8 tanh r rounds to 1, so no source weight vanishes, yet every one is about 1e-305:
    # the one source sector at s = 185 would span 741 bra-ket offsets before it was found empty
    monkeypatch.setattr(LossyEngine, "_t_sector", lambda *args: pytest.fail("a source sector was built"))
    eng = LossyEngine(177.8, LossConfig(0.5, 0.9, 0.5, 0.9), TruncationPolicy(185, 0.0))
    with pytest.raises(DegenerateSectorError, match=r"sector s=185 has probability 8\.003e-306 at most"):
        eng.mermin_sides(185, theta_triple(0.3))
    with pytest.raises(DegenerateSectorError, match="at most"):
        LossyEngine(177.8, LossConfig(0.5, 0.9, 0.5, 0.9)).correlation(0.3, -0.2, 185)


def test_source_weight_bound_keeps_every_sector_that_builds():
    # the bound holds the built probability, with room for rounding, and rejects nothing that builds
    from merminbell.source import sector_weight

    for r, s, loss in [(0.3, 2, LossConfig(0.9, 0.8, 0.85, 0.75)), (20.0, 1, LossConfig.equal_eta(0.9)),
                       (3.0, 40, LossConfig.equal_eta(1.0)), (0.05, 30, LossConfig(0.9, 0.7, 0.8, 0.6))]:
        eng = LossyEngine(r, loss, TruncationPolicy(s + 2, 0.0))
        cap = eng.policy.cap(2 * s)
        bound = sum(sector_weight(HalfInt(t), r) for t in range(2 * s, cap + 1))
        prob = eng.correlation(0.3, -0.2, s)[1]
        assert prob <= bound * (1 + 1e-12), (r, s)


def test_full_distribution_mass_plus_tail():
    policy = TruncationPolicy(HalfInt(24), rel_tol=1e-9)
    for eta in (1.0, 0.8, 0.5):
        dist = LossyEngine(0.3, LossConfig.equal_eta(eta), policy).joint(0.5, -0.8)
        assert dist.converged
        assert dist.total_mass() + dist.tail_bound == pytest.approx(1.0, abs=1e-6)
        assert all(p.min() >= 0.0 for p in dist.blocks.values())
        assert all(p.max() <= 1.0 for p in dist.blocks.values())


def test_unrestricted_cutoff_converges_on_mass():
    # the full distribution stops on the probability it holds, so a converged
    # run has lost no more than rel_tol to the sectors beyond its cutoff
    policy = TruncationPolicy(HalfInt(20), rel_tol=1e-6)
    dist = LossyEngine(0.5, LossConfig.equal_eta(0.8), policy).joint(0.3, -0.4)
    assert dist.converged
    assert dist.tail_bound <= policy.rel_tol
    assert dist.total_mass() + dist.tail_bound == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("sectors", [(-1, 1), (1,), (1, 2, 3)])
def test_joint_sectors_must_be_two_nonnegative_spins(sectors):
    with pytest.raises(ValueError, match="sectors must be two nonnegative spins"):
        LossyEngine(0.3, LossConfig.equal_eta(0.9)).joint(0.7, -0.4, sectors=sectors)


def test_joint_of_a_sector_no_source_sector_feeds_is_zero_without_a_contraction(monkeypatch):
    # at r = 0.3 the one source sector s = 185.5 has weight 0 in a float: its 743-offset kernel is all zero
    contract = lossy._contract

    def guarded(kernels, *args):
        assert not kernels, "a zero kernel was contracted"
        return contract(kernels, *args)

    monkeypatch.setattr(lossy, "_contract", guarded)
    dist = LossyEngine(0.3, LossConfig(0.9, 0.9, 0.5, 0.9), TruncationPolicy(2, 0.0)).joint(0.0, 0.3, (185.5, 185.5))
    assert list(dist.blocks) == [(371, 371)] and np.array_equal(dist.blocks[(371, 371)], np.zeros((372, 372)))


@pytest.mark.parametrize("s", [math.inf, math.nan])
def test_a_spin_that_is_not_finite_is_a_value_error(s):
    with pytest.raises(ValueError, match="is not a half-integer"):
        LossyEngine(0.3, LossConfig.equal_eta(0.9)).mermin_sides(s, theta_triple(0.3))


def test_perfect_detection_supports_equal_sectors():
    dist = LossyEngine(0.4, LossConfig.equal_eta(1.0), TruncationPolicy(HalfInt(8))).joint(0.9, 0.1)
    for (tsa, tsb), p in dist.blocks.items():
        if p.max() > 1e-14:
            assert tsa == tsb


# ------------------------------------------------------------ kernel build


def _reference_kernels(r, loss, pairs, policy):
    """The kernels built offset by offset: zeroed kernels, exp of log pair weights, every source sector."""

    def log_tau2(ts):
        if ts and r == 0.0:
            return -math.inf
        return (ts * math.log(math.tanh(r)) if ts else 0.0) - 2.0 * math.log(math.cosh(r))

    def pair_weights(logw, dw):
        out = np.zeros_like(logw)
        nw, nmu = logw.shape
        w0, w1, m0, m1 = max(0, -dw), min(nw, nw - dw), max(0, -dw), min(nmu, nmu - dw)
        if w1 > w0 and m1 > m0:
            out[w0:w1, m0:m1] = np.exp(0.5 * (logw[w0:w1, m0:m1] + logw[w0 + dw : w1 + dw, m0 + dw : m1 + dw]))
        return out

    def t_sector(tsa, tsb, ts):
        dmax = min(tsa, tsb)
        la = log_weight_table(ts, tsa, loss.eta_a1, loss.eta_a2) + log_tau2(ts)
        lb = log_weight_table(ts, tsb, loss.eta_b2, loss.eta_b1) + log_tau2(ts)
        blocks = [pair_weights(la, dl).T @ pair_weights(lb, -dl)[::-1] for dl in range(-dmax, dmax + 1)]
        return np.array([-b if dl % 2 else b for dl, b in zip(range(-dmax, dmax + 1), blocks)])

    t_floor = max(max(p) for p in pairs) if pairs else 0
    t_max = t_floor + 30 if policy.max_s is None else max(policy.max_s.twice, t_floor)
    tcut = min(t_floor + 4, t_max) if policy.rel_tol else t_max
    ok = tcut >= t_max and sector_weight_tail(HalfInt(tcut), r) == 0.0
    kernels, applied, prev = {}, -1, None
    while True:
        for ts in range(applied + 1, tcut + 1):
            for tsa, tsb in pairs or [(a, b) for a in range(ts + 1) for b in range(ts + 1)]:
                if max(tsa, tsb) <= ts:
                    shape = (2 * min(tsa, tsb) + 1, tsa + 1, tsb + 1)
                    kernels.setdefault((tsa, tsb), np.zeros(shape))[...] += t_sector(tsa, tsb, ts)
        applied = tcut
        mass = sum(float(t[min(k)].sum()) for k, t in kernels.items())
        if prev is not None:
            ok = abs(mass - prev) / max(abs(mass), abs(prev), 1e-300) <= policy.rel_tol
        if ok or tcut >= t_max:
            return kernels, tcut, ok
        prev, tcut = mass, min(tcut + 2, t_max)


KERNEL_LOSSES = {
    "equal": LossConfig.equal_eta(0.8),
    "unequal": LossConfig(0.9, 0.6, 0.8, 0.7),
    "dark-and-perfect": LossConfig(0.0, 0.7, 1.0, 0.5),
    "perfect": LossConfig.equal_eta(1.0),
}


@pytest.mark.parametrize("r", [0.0, 0.05, 0.9])
@pytest.mark.parametrize("loss", KERNEL_LOSSES.values(), ids=KERNEL_LOSSES.keys())
@pytest.mark.parametrize(
    "pairs, policy",
    [
        (((4, 4),), TruncationPolicy()),
        (((2, 5),), TruncationPolicy(HalfInt(9), rel_tol=1e-9)),
        (((3, 1),), TruncationPolicy(HalfInt(2), 0.0)),
        (None, TruncationPolicy(HalfInt(6), rel_tol=1e-6)),
        (None, TruncationPolicy(HalfInt(5), 0.0)),
        (((2, 5),), TruncationPolicy(HalfInt(9), 0.0)),
        (((2, 5),), TruncationPolicy(HalfInt(13), 0.0)),
    ],
    ids=[
        "post-selected", "tsa<tsb", "tsa>tsb-capped", "unrestricted", "unrestricted-one-pass",
        "tsa<tsb-one-pass", "tsa<tsb-one-pass-deep",
    ],
)
def test_kernels_equal_offset_by_offset_reference(r, loss, pairs, policy):
    eng = LossyEngine(r, loss, policy)
    kernels, tcut, ok = eng._kernels(pairs)
    want, want_cut, want_ok = _reference_kernels(r, loss, pairs, policy)
    assert (tcut, ok) == (want_cut, want_ok)
    assert list(kernels) == list(want)
    for key, t in kernels.items():
        ref = want[key]
        if loss.equal_within_sides:  # the engine keeps the dl = 0 slice only
            ref = ref[(len(ref) - 1) // 2][None]
        assert t.shape == ref.shape
        assert np.abs(t - ref).max() <= 1e-13 * np.abs(ref).max()
        assert not t.flags.writeable
    if not policy.rel_tol:
        # one pass: the cap's every source sector in order, also where the cap lies above 2s + 4
        assert tcut == policy.cap(max(max(p) for p in pairs) if pairs else 0)
        for (tsa, tsb), t in kernels.items():
            blocks = [_one_block(eng, tsa, tsb, ts) for ts in range(max(tsa, tsb), tcut + 1)]
            blocks = [b for b in blocks if b is not None] or [np.zeros_like(t)]
            assert np.array_equal(t, sum(blocks[1:], blocks[0])), (tsa, tsb)


def _one_block(eng, tsa, tsb, ts):
    """Source sector ts's block of one sector pair, or None where it adds nothing."""
    kernels = {}
    eng._t_sector(ts, [(tsa, tsb)], kernels)
    return kernels.get((tsa, tsb))


def test_perfect_detection_builds_one_source_sector(monkeypatch):
    # at eta=1 every table from a larger source spin is zero, so only ts = 2s* adds to the kernel,
    # and no other table is built
    built, table = [], lossy.log_weight_table

    def recording(ts, tso, *etas):
        built.append((ts, tso))
        return table(ts, tso, *etas)

    lossy._amplitudes.cache_clear()
    monkeypatch.setattr(lossy, "log_weight_table", recording)
    rec = LossyEngine(0.4, LossConfig.equal_eta(1.0)).mermin_sides(HalfInt(4), theta_triple(0.3))
    assert rec.converged and rec.s_cutoff_used == HalfInt(10)
    assert built == [(4, 4)]


@pytest.mark.parametrize("eta_up", [0.0, 1e-300, 0.5, 1.0])
@pytest.mark.parametrize("eta_dn", [0.0, 1e-300, 0.5, 1.0])
def test_feeds_rule_skips_only_all_zero_tables(eta_up, eta_dn):
    # the rule may keep a table that underflows to zero (1e-300), never drop one that is not;
    # on a side whose efficiencies are all 0 or 1 it is exact.  _amplitudes is None for every zero table.
    exact = {eta_up, eta_dn} <= {0.0, 1.0}
    for ts in range(7):
        for tso in range(ts + 1):
            nonzero = bool(np.exp(0.5 * log_weight_table(ts, tso, eta_up, eta_dn)).any())
            feeds = lossy._feeds(ts, tso, eta_up, eta_dn)
            assert feeds == nonzero if exact else feeds or not nonzero, (ts, tso)
            assert (lossy._amplitudes(ts, tso, eta_up, eta_dn) is not None) == nonzero, (ts, tso)


def test_amplitude_tables_are_shared_and_read_only():
    h = lossy._amplitudes(5, 3, 0.9, 0.6)
    assert h is lossy._amplitudes(5, 3, 0.9, 0.6)
    np.testing.assert_array_equal(h, np.exp(0.5 * log_weight_table(5, 3, 0.9, 0.6)))
    with pytest.raises(ValueError, match="read-only"):
        h[0, 0] = 1.0
    view = lossy._shifted(h, 2, 1)
    assert view.shape == (5, 6, 4) and view[3, 1, 1] == h[2, 2] and view[0, 0, 0] == 0.0
    with pytest.raises(ValueError, match="read-only"):
        view[2, 0, 0] = 1.0


def test_amplitude_tables_outlive_a_deep_unrestricted_build(monkeypatch):
    # 650 tables: every (ts, tso) up to 2s = 24 on each side; the next engine at these efficiencies builds none
    loss, policy = LossConfig(0.6, 0.6, 0.8, 0.8), TruncationPolicy(HalfInt(24), 0.0)
    lossy._amplitudes.cache_clear()
    LossyEngine(0.5, loss, policy).joint(0.7, -0.4)
    assert len(lossy._amplitudes.values) == 2 * 25 * 26 // 2
    monkeypatch.setattr(lossy, "log_weight_table", lambda *args: pytest.fail(f"table {args} rebuilt"))
    LossyEngine(0.3, loss, policy).joint(0.7, -0.4)


def _full_stacks(t, tsa, tsb, alpha, beta):
    """Gathered full-depth pair stacks EA_dl and halves T_dl EB_dl, one per bra-ket offset."""
    dmax = (t.shape[0] - 1) // 2

    def pairs(d):
        n = d.shape[0]
        padded = np.zeros((n + 2 * dmax, n))
        padded[dmax : dmax + n] = d
        return padded[np.arange(n)[None, :] + np.arange(2 * dmax + 1)[:, None]] * d

    ea = pairs(numerics.wigner_d_matrix(HalfInt(tsa), alpha))
    eb = pairs(numerics.wigner_d_matrix(HalfInt(tsb), beta))[::-1]
    return ea, np.stack([t[k] @ eb[k] for k in range(t.shape[0])])


def _full_stack_join(t, tsa, tsb, alpha, beta):
    """sum_dl EA_dl^T T_dl EB_dl from the full stacks as one flattened product."""
    ea, x = _full_stacks(t, tsa, tsb, alpha, beta)
    return ea.reshape(-1, tsa + 1).T @ x.reshape(-1, tsb + 1)


def _random_kernel(tsa, tsb):
    rng = np.random.default_rng(tsa + 7 * tsb)
    return rng.standard_normal((2 * min(tsa, tsb) + 1, tsa + 1, tsb + 1)), rng.uniform(-math.pi, math.pi, 2)


def test_join_is_one_flattened_product_up_to_spin_7():
    for tsa in range(15):
        for tsb in range(15):
            t, (alpha, beta) = _random_kernel(tsa, tsb)
            got = lossy._contract({(tsa, tsb): t}, (alpha,), (beta,))[(tsa, tsb)]
            assert got.shape == (1, 1, tsa + 1, tsb + 1), (tsa, tsb)
            assert np.array_equal(got[0, 0], _full_stack_join(t, tsa, tsb, alpha, beta)), (tsa, tsb)


@pytest.mark.parametrize("tsa, tsb", [(60, 60), (60, 41), (41, 60), (60, 0)])
def test_join_splits_large_spin_into_offset_runs(tsa, tsb):
    t, (alpha, beta) = _random_kernel(tsa, tsb)
    assert len(lossy._runs(t.shape[0], (tsa + 1) ** 2 * (tsb + 1))) > 1 or tsb == 0
    ea, x = _full_stacks(t, tsa, tsb, alpha, beta)
    want = sum(e.T @ xi for e, xi in zip(ea, x))
    got = lossy._contract({(tsa, tsb): t}, (alpha,), (beta,))[(tsa, tsb)][0, 0]
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("tsa, tsb", [(4, 4), (14, 14), (60, 60), (60, 41), (41, 60), (60, 0)])
def test_blocked_contract_equals_full_stack_join(tsa, tsb):
    # every block of an angle grid, bit for bit where one run covers all offsets
    t, _ = _random_kernel(tsa, tsb)
    alphas, betas = (0.4, -2.1), (1.3, -0.6, 3.0)
    grid = lossy._contract({(tsa, tsb): t}, alphas, betas)[(tsa, tsb)]
    one_run = len(lossy._runs(t.shape[0], (tsa + 1) ** 2 * (tsb + 1))) == 1
    for i, alpha in enumerate(alphas):
        for j, beta in enumerate(betas):
            want = _full_stack_join(t, tsa, tsb, alpha, beta)
            if one_run:
                assert np.array_equal(grid[i, j], want), (i, j)
            else:
                assert np.max(np.abs(grid[i, j] - want)) <= 1e-13 * np.max(np.abs(want)), (i, j)


@pytest.mark.parametrize("tsa, tsb", [(4, 6), (41, 60)])
def test_contract_grid_blocks_equal_single_angle_calls(tsa, tsb):
    t, _ = _random_kernel(tsa, tsb)
    alphas, betas = (0.3, -1.2, 2.9), (0.0, 0.7, -2.2, math.pi)
    grid = lossy._contract({(tsa, tsb): t}, alphas, betas)[(tsa, tsb)]
    assert grid.shape == (3, 4, tsa + 1, tsb + 1)
    for i, alpha in enumerate(alphas):
        for j, beta in enumerate(betas):
            one = lossy._contract({(tsa, tsb): t}, (alpha,), (beta,))[(tsa, tsb)]
            assert np.array_equal(grid[i, j], one[0, 0]), (i, j)


@pytest.mark.parametrize("tsa, tsb, ts", [(30, 30, 40), (20, 45, 50), (45, 20, 60), (60, 60, 60)])
def test_t_sector_equals_full_stack_product(tsa, tsb, ts):
    eng = LossyEngine(0.3, LossConfig(0.9, 0.6, 0.8, 0.7))
    dmax = min(tsa, tsb)
    assert len(lossy._runs(2 * dmax + 1, (tsa + 1) * (ts + 1) * (tsb + 1))) > 1
    assert np.array_equal(_one_block(eng, tsa, tsb, ts), _full_stack_block(eng, tsa, tsb, ts))


def _full_stack_block(eng, tsa, tsb, ts):
    """Source sector ts's block of one pair as one full-depth batched product."""
    dmax = min(tsa, tsb)
    ha = lossy._amplitudes(ts, tsa, *eng._side_etas("a"))
    hb = lossy._amplitudes(ts, tsb, *eng._side_etas("b"))[::-1]
    want = np.matmul((ha * lossy._shifted(ha, dmax, 1)).transpose(0, 2, 1), hb * lossy._shifted(hb, dmax, -1))
    want *= math.exp(2.0 * eng._log_tau2(ts))
    want[1 - dmax % 2 :: 2] *= -1.0
    return want


def test_t_sector_of_many_pairs_equals_full_stack_products():
    # one call on pairs that share sectors, each over several runs, adds the same bits to every kernel,
    # both where the block becomes the kernel and where it is added to one
    eng, ts = LossyEngine(0.3, LossConfig(0.9, 0.6, 0.8, 0.7)), 60
    pairs = [(30, 30), (30, 60), (60, 30), (45, 20), (20, 45), (60, 60), (45, 60), (60, 45)]
    assert all(len(lossy._runs(2 * min(p) + 1, (p[0] + 1) * (ts + 1) * (p[1] + 1))) > 1 for p in pairs)
    kernels = {(60, 60): np.ones((121, 61, 61))}
    eng._t_sector(ts, pairs, kernels)
    assert list(kernels) == [(60, 60)] + [p for p in pairs if p != (60, 60)]
    for p in pairs:
        want = _full_stack_block(eng, *p, ts)
        assert np.array_equal(kernels[p], 1.0 + want if p == (60, 60) else want), p


def test_t_sector_skips_a_block_that_rounds_to_zero(monkeypatch):
    # at r = 185 every entry of tau^4 EA^T EB of pair (4, 4) rounds to zero: no product is formed, and the
    # kernel is the zero block; at r = 182 the bound does not fire and the block holds denormals
    loss, ts = LossConfig(0.1, 0.05, 0.1, 0.05), 4
    low = LossyEngine(182.0, loss)
    want = _full_stack_block(low, 4, 4, ts)
    assert np.count_nonzero(want) == 6 and np.array_equal(_one_block(low, 4, 4, ts), want)
    eng = LossyEngine(185.0, loss)
    want = _full_stack_block(eng, 4, 4, ts)
    assert not want.any()
    monkeypatch.setattr(lossy, "_matmul", lambda *args: pytest.fail("a zero block was formed"))
    got = _one_block(eng, 4, 4, ts)
    assert got.shape == want.shape and not got.any()


def test_joint_of_a_sector_that_rounds_to_zero_forms_no_product(monkeypatch):
    # r = 177.8: tau^4 and a table from eta 1e-300 round every block of the (185, 185) sector to zero
    monkeypatch.setattr(lossy, "_matmul", lambda *args: pytest.fail("a zero block was formed"))
    eng = LossyEngine(177.8, LossConfig(1e-300, 0.9, 0.9, 0.5), TruncationPolicy(2, 1e-6))
    dist = eng.joint(1e15, 1e-300, (185, 185))
    assert list(dist.blocks) == [(370, 370)] and not dist.blocks[(370, 370)].any()
    assert dist.s_cutoff_used == HalfInt(370) and not dist.converged


def test_large_spin_products_stay_within_single_thread_size(monkeypatch):
    # every gemm of a cold s = 40 evaluation (rotation basis, blocks, kernel build, contraction)
    # stays where OpenBLAS runs it on the calling thread
    sizes, matmul = [], np.matmul

    def recording(a, b, out=None):
        sizes.append(a.shape[-2] * a.shape[-1] * b.shape[-1])
        return matmul(a, b, out=out)

    numerics._sx_eigenvectors.cache_clear()
    numerics._wigner_matrix_cached.cache_clear()
    monkeypatch.setattr(np, "matmul", recording)
    rec = LossyEngine(0.3, LossConfig.equal_eta(1.0)).mermin_sides(40, theta_triple(0.3 / 40))
    monkeypatch.undo()
    ideal = ideal_mermin_sides(40, rec.angles)
    assert rec.lhs == pytest.approx(ideal.lhs, rel=1e-12) and rec.rhs == pytest.approx(ideal.rhs, rel=1e-12)
    assert 81**3 > 2 * lossy._SINGLE_THREAD_MACS and sizes and max(sizes) <= lossy._SINGLE_THREAD_MACS


DEEP_JOINT_LOSS = LossConfig(0.6, 0.95, 0.7, 0.8)


@pytest.mark.parametrize(
    "loss, largest",
    [
        # offset runs and column splits fill the single-thread size
        (DEEP_JOINT_LOSS, lossy._SINGLE_THREAD_MACS),
        # one product per pair, 25 x 25 x 25 at most: no run stacks offsets
        (LossConfig(0.9, 0.9, 0.7, 0.7), 25**3),
    ],
    ids=["unequal", "per-side-equal"],
)
def test_deep_unrestricted_joint_stays_within_single_thread_size(loss, largest, monkeypatch):
    # every gemm of a cold deep full distribution (rotation basis, blocks, shared-sector build and contraction)
    sizes, matmul = [], np.matmul

    def recording(a, b, out=None):
        sizes.append(a.shape[-2] * a.shape[-1] * b.shape[-1])
        return matmul(a, b, out=out)

    numerics._sx_eigenvectors.cache_clear()
    numerics._wigner_matrix_cached.cache_clear()
    monkeypatch.setattr(np, "matmul", recording)
    dist = LossyEngine(0.5, loss, TruncationPolicy(HalfInt(40), rel_tol=1e-14)).joint(0.7, -0.4)
    monkeypatch.undo()
    assert dist.converged and dist.s_cutoff_used == HalfInt(24)
    assert largest // 2 < max(sizes) <= largest <= lossy._SINGLE_THREAD_MACS


JOINT_LOSSES = {"equal": LossConfig.equal_eta(0.8), "unequal": LossConfig(0.9, 0.6, 0.8, 0.7)}


@pytest.mark.parametrize(
    "r, loss",
    [(r, loss) for r in (0.0, 0.3) for loss in JOINT_LOSSES.values()]
    # pairs with a spin-0 side, whose products round 1 ulp apart when laid out as slices of a wider product
    + [(20.0, LossConfig(0.1, 0.05, 0.1, 0.05))],
    ids=[f"{name}-{r}" for r in (0.0, 0.3) for name in JOINT_LOSSES] + ["low-eta-20.0"],
)
def test_unrestricted_joint_blocks_equal_post_selected_joints(r, loss):
    # every pair forms its own products from its sectors' padded copies, so it gets the same bits among others
    eng = LossyEngine(r, loss, TruncationPolicy(HalfInt(6), 0.0))
    for alpha, beta in [(0.7, -0.4), (2.3, 1.1)]:
        dist = eng.joint(alpha, beta)
        assert len(dist.blocks) == 49
        for (tsa, tsb), p in dist.blocks.items():
            one = eng.joint(alpha, beta, sectors=(HalfInt(tsa), HalfInt(tsb)))
            assert one.s_cutoff_used == dist.s_cutoff_used
            assert np.array_equal(p, one.blocks[(tsa, tsb)]), (tsa, tsb)


def test_deep_unrestricted_joint_blocks_equal_post_selected_joints():
    # pairs whose kernel build and contraction run over several runs of offsets, bit for bit as alone
    eng = LossyEngine(0.5, DEEP_JOINT_LOSS, TruncationPolicy(HalfInt(24), 0.0))
    dist = eng.joint(0.7, -0.4)
    pairs = [(24, 24), (24, 23), (23, 24), (24, 10), (10, 24), (17, 20), (3, 24)]
    assert len(lossy._runs(49, 25**3)) > 1 and len(lossy._runs(47, 25 * 25 * 24)) > 1
    for tsa, tsb in pairs:
        one = eng.joint(0.7, -0.4, sectors=(HalfInt(tsa), HalfInt(tsb)))
        assert np.array_equal(dist.blocks[(tsa, tsb)], one.blocks[(tsa, tsb)]), (tsa, tsb)


def test_each_outcome_sector_makes_one_padded_copy_per_call(monkeypatch):
    # a multi-pair build or contraction pads each sector's table or rotation block once (per angle), by
    # min(its 2s, the other side's largest 2s): a post-selected pair pads no sector beyond the other's spin
    shifted, copies = lossy._shifted, []

    def recording(h, dmax, step):
        copies.append((h.shape, dmax, step))
        return shifted(h, dmax, step)

    monkeypatch.setattr(lossy, "_shifted", recording)
    eng, ts = LossyEngine(0.3, LossConfig(0.9, 0.6, 0.8, 0.7)), 6
    pairs = [(6, 2), (6, 4), (2, 6), (4, 4), (2, 2), (4, 6)]
    eng._t_sector(ts, pairs, {})
    assert sorted(copies) == sorted(
        [((ts + 1, a + 1), min(a, 6), 1) for a in (2, 4, 6)] + [((ts + 1, b + 1), min(b, 6), -1) for b in (2, 4, 6)]
    )
    copies.clear()
    kernels = {p: _random_kernel(*p)[0] for p in pairs}
    lossy._contract(kernels, (0.3, -1.2), (0.0, 0.7, 2.2))
    assert sorted(copies) == sorted(
        [((a + 1, a + 1), a, 0) for a in (2, 4, 6) for _ in range(2)]
        + [((b + 1, b + 1), b, 0) for b in (2, 4, 6) for _ in range(3)]
    )
    copies.clear()
    LossyEngine(0.3, DEEP_JOINT_LOSS).joint(0.7, -0.4, sectors=(12, 3))
    # Alice's spin-12 table and rotation block are padded by Bob's 2 s_b = 6 offsets, not by her own 24
    assert {dmax for shape, dmax, _ in copies if shape[1] == 25} == {6}


def _per_side_equal_settings():
    """Seeded (r, eta_a, eta_b): r = 0, a side at eta 0 or 1 and eta_a != eta_b among them."""
    rng = np.random.default_rng(24)
    out = []
    for k in range(8):
        r = 0.0 if k == 0 else float(rng.uniform(0.05, 0.9))
        eta_a, eta_b = (float(x) for x in rng.uniform(0.3, 1.0, 2))
        eta_a, eta_b = {1: (0.0, eta_b), 2: (eta_a, 1.0), 3: (1.0, 0.0), 4: (1.0, 1.0)}.get(k, (eta_a, eta_b))
        out.append((r, eta_a, eta_b))
    return out


def _reference_moment_parts(t, ts):
    """(zz, ladders) of a full-offset kernel of the pair (ts, ts), read from its dl = 0 and +-1 slices."""
    so = ts / 2.0
    mu = np.arange(ts + 1) - so
    lp = np.sqrt(np.maximum(so * (so + 1) - mu * (mu + 1), 0.0))
    lm = np.sqrt(np.maximum(so * (so + 1) - mu * (mu - 1), 0.0))
    c = (len(t) - 1) // 2
    return mu @ t[c] @ mu, lp @ t[c + 1] @ lm + lm @ t[c - 1] @ lp


@pytest.mark.parametrize(
    "r, eta_a, eta_b", _per_side_equal_settings(), ids=lambda x: f"{x:.3f}" if isinstance(x, float) else None
)
def test_per_side_equal_route_equals_full_offset_reference(r, eta_a, eta_b):
    # the engine keeps one slice and contracts at (alpha - beta, 0); the reference keeps every offset and
    # contracts densely at (alpha, beta)
    loss = LossConfig(eta_a, eta_a, eta_b, eta_b)
    rng = np.random.default_rng(round(1e6 * (r + eta_a + 2 * eta_b)))
    policy = TruncationPolicy(HalfInt(3), 0.0)

    def assert_blocks_equal(dist, ref_kernels, alpha, beta):
        assert sorted(dist.blocks) == sorted(ref_kernels)
        for (tsa, tsb), t in ref_kernels.items():
            want = np.maximum(_full_stack_join(t, tsa, tsb, alpha, beta), 0.0)
            assert np.abs(dist.blocks[(tsa, tsb)] - want).max() <= 1e-13 * want.max(), (tsa, tsb)

    eng = LossyEngine(r, loss, policy)
    ref_all = _reference_kernels(r, loss, None, policy)[0]
    for alpha, beta in rng.uniform(-2 * math.pi, 2 * math.pi, (3, 2)):
        assert_blocks_equal(eng.joint(alpha, beta), ref_all, alpha, beta)
        for pair in [(1, 3), (4, 4), (6, 2)]:
            one = eng.joint(alpha, beta, sectors=tuple(HalfInt(t) for t in pair))
            assert_blocks_equal(one, {pair: _reference_kernels(r, loss, (pair,), policy)[0][pair]}, alpha, beta)
    if 0.0 in (eta_a, eta_b) or r == 0.0:
        return  # no post-selected sector above spin 0 has weight
    for ts in (1, 2, 4):
        s = HalfInt(ts)
        t = _reference_kernels(r, loss, ((ts, ts),), policy)[0][(ts, ts)]
        prob, (zz, ladders) = t[(len(t) - 1) // 2].sum(), _reference_moment_parts(t, ts)
        assert abs(ladders - 4.0 * zz) <= 1e-13 * abs(zz)
        assert eng._sector(s)[2] == (pytest.approx(zz, rel=1e-13), pytest.approx(ladders, rel=1e-13))
        gaps = np.abs(np.subtract.outer(np.arange(ts + 1), np.arange(ts + 1)))
        for alpha, beta, gamma in rng.uniform(-2 * math.pi, 2 * math.pi, (3, 3)):
            p = np.maximum(_full_stack_join(t, ts, ts, alpha, beta), 0.0)
            lhs = s.value * (gaps * p).sum() / prob
            rhs = sum(math.cos(x) * math.cos(gamma) * zz + math.sin(x) * math.sin(gamma) * ladders / 4
                      for x in (alpha, beta)) / prob
            rec = eng.mermin_sides(s, AngleTriple(alpha, beta, gamma))
            assert rec.lhs == pytest.approx(lhs, rel=1e-13) and rec.rhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)


@pytest.mark.parametrize(
    "loss, slices, bound",
    [
        # one source sector feeds the kernel (Alice loses nothing); it holds 121 offsets, the peak at most two of it
        (LossConfig(1.0, 1.0, 1.0, 0.9), 121, 2),
        # per-side-equal loss: a kernel of one slice, and nothing near the 121 slices of a full-depth stack
        (LossConfig.equal_eta(1.0), 1, 8),
        (LossConfig(0.9, 0.9, 0.7, 0.7), 1, 8),
    ],
    ids=["unequal", "equal", "per-side-equal"],
)
def test_large_spin_evaluation_holds_no_full_depth_pair_stack(loss, slices, bound):
    LossyEngine(0.3, loss).mermin_sides(30, theta_triple(0.01))  # warm the shared caches
    eng = LossyEngine(0.3, loss)
    tracemalloc.start()
    try:
        eng.mermin_sides(30, theta_triple(0.01))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kernel = eng._sector(HalfInt(60))[0]
    assert kernel.shape == (slices, 61, 61)
    assert peak <= bound * kernel.nbytes, peak / kernel.nbytes


# ------------------------------------------------------------- eta=1 limits


@pytest.mark.parametrize("r", [0.2, 0.5])
@pytest.mark.parametrize(
    "angles",
    [AngleTriple(0.3, -0.7, 0.1), AngleTriple(1.0, 2.0, 3.0), AngleTriple(0.8, 0.8, -0.8)],
)
def test_eta1_reduction_small(r, angles):
    # at eta=1 only source sector s feeds outcome sector s, so the default policy converges on it
    eng = LossyEngine(r, LossConfig.equal_eta(1.0))
    for ts in (1, 2, 3):
        s = HalfInt(ts)
        got = eng.mermin_sides(s, angles)
        want = ideal_mermin_sides(s, angles)
        assert got.lhs == pytest.approx(want.lhs, abs=1e-10)
        assert got.rhs == pytest.approx(want.rhs, abs=1e-10)
        assert got.converged


@pytest.mark.parametrize("s", [20, 50, 100])
def test_eta1_lhs_meets_the_reference_to_rounding(s):
    # the reference reads d(alpha - beta) with its columns reversed, not d(pi - (alpha - beta)) at the float pi
    angles = theta_triple(0.3 / s)
    got = LossyEngine(0.3, LossConfig.equal_eta(1.0)).mermin_sides(s, angles).lhs
    want = ideal_mermin_sides(s, angles).lhs
    assert abs(got - want) <= 4e-15 * abs(want)


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
    eng = LossyEngine(r, LossConfig.equal_eta(1.0), TruncationPolicy(s + HalfInt(2)))
    dist = eng.joint(alpha, beta, sectors=(s, s))
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
    eng = LossyEngine(r, loss, CAP_POLICY)
    for alpha, beta in ((0.35, -0.9), (1.1, 0.4)):
        want = simulate_joint(r, loss, alpha, beta, cutoff=4, sector_max=S_CAP)
        got = eng.joint(alpha, beta)
        assert got.largest_difference(want)[0] <= 1e-12


def test_joint_matches_oracle_unequal_eta():
    loss = LossConfig(0.9, 0.7, 0.8, 0.6)
    r = 0.5
    eng = LossyEngine(r, loss, CAP_POLICY)
    want = simulate_joint(r, loss, 0.7, -0.4, cutoff=4, sector_max=S_CAP)
    got = eng.joint(0.7, -0.4)
    assert got.largest_difference(want)[0] <= 1e-12


def test_sector_correlations_match_oracle():
    r = 0.5
    for loss in (LossConfig.equal_eta(0.8), LossConfig(0.9, 0.7, 0.8, 0.6)):
        eng = LossyEngine(r, loss, CAP_POLICY)
        for alpha, beta in ((0.6, -0.9), (0.0, 1.2)):
            want = simulate_joint(r, loss, alpha, beta, cutoff=4, sector_max=S_CAP)
            for s_star in half_range(HalfInt(1), S_CAP):
                if want.sector_probability(s_star, s_star) < 1e-12:
                    continue
                c_or = want.correlation(sector=(s_star, s_star), conditioned=True)
                c_cl, p_cl, _, _ = eng.correlation(alpha, beta, s_star)
                assert c_cl == pytest.approx(c_or, abs=1e-10)
                assert p_cl == pytest.approx(
                    want.sector_probability(s_star, s_star), abs=1e-12
                )


def test_joint_and_correlations_match_oracle_deeper_cap():
    # one deeper matched truncation (sectors through s = 5/2) to cover the
    # higher half-integer sectors as well
    cap = HalfInt(5)
    r = 0.45
    loss = LossConfig(0.85, 0.75, 0.95, 0.65)
    eng = LossyEngine(r, loss, TruncationPolicy(cap, 0.0))
    want = simulate_joint(r, loss, 0.55, -1.1, cutoff=5, sector_max=cap)
    got = eng.joint(0.55, -1.1)
    assert got.largest_difference(want)[0] <= 1e-12
    for s_star in half_range(HalfInt(1), cap):
        if want.sector_probability(s_star, s_star) < 1e-12:
            continue
        c_or = want.correlation(sector=(s_star, s_star), conditioned=True)
        c_cl, _, _, _ = eng.correlation(0.55, -1.1, s_star)
        assert c_cl == pytest.approx(c_or, abs=1e-10)


@pytest.mark.parametrize("cap", [HalfInt(6), HalfInt(7)], ids=["s<=3", "s<=7/2"])
def test_joint_matches_oracle_beyond_s_five_halves(cap):
    loss = LossConfig(0.85, 0.75, 0.95, 0.65)
    want = simulate_joint(0.45, loss, 0.55, -1.1, cutoff=cap.twice, sector_max=cap)
    got = LossyEngine(0.45, loss, TruncationPolicy(cap, 0.0)).joint(0.55, -1.1)
    assert max(want.blocks) == (cap.twice, cap.twice)
    assert got.largest_difference(want)[0] <= 1e-8


def test_moment_route_equals_operator_route():
    # sum of m_a*m_b over the joint distribution at the same angles
    r, eta = 0.4, 0.75
    eng = LossyEngine(r, LossConfig.equal_eta(eta), TruncationPolicy(HalfInt(20), rel_tol=1e-10))
    for alpha, beta in ((0.0, 0.0), (0.8, -0.3)):
        s_star = HalfInt(2)
        dist = eng.joint(alpha, beta, sectors=(s_star, s_star))
        want = dist.correlation(sector=(s_star, s_star), conditioned=True)
        got, _, _, _ = eng.correlation(alpha, beta, s_star)
        assert got == pytest.approx(want, abs=1e-9)


def test_correlation_of_a_missing_sector_is_empty():
    p = np.array([[0.1, 0.2, 0.0], [0.0, 0.3, 0.1], [0.05, 0.0, 0.25]])
    dist = JointOutcomeDistribution({(2, 2): p}, 0.0, HalfInt(2), True)
    assert dist.correlation(sector=(0.5, 0.5)) == 0.0
    with pytest.raises(DegenerateSectorError):
        dist.correlation(sector=(0.5, 0.5), conditioned=True)
    m = np.array([-1.0, 0.0, 1.0])
    assert dist.correlation(sector=(1, 1)) == dist.correlation() == float(m @ p @ m)


# ---------------------------------------------------------- full-trace moment

FULL_TRACE_LOSSES = {
    "equal": LossConfig.equal_eta(0.8),
    "unequal": LossConfig(0.6, 0.95, 0.7, 0.8),
    "dark-and-perfect": LossConfig(0.0, 0.7, 1.0, 0.5),
}
FULL_TRACE_ANGLES = [(0.0, math.pi / 2), (0.7, -0.4), (1.3, 2.1), (-2.5, 0.9)]


@pytest.mark.parametrize("r", [0.3, 0.5])
@pytest.mark.parametrize("loss", FULL_TRACE_LOSSES.values(), ids=FULL_TRACE_LOSSES.keys())
def test_full_trace_closed_form_matches_converged_joint(r, loss):
    # the value vanishes at alpha = 0, beta = pi/2, so the bound is absolute, on the scale sinh(2r)^2/8
    deep = LossyEngine(r, loss, TruncationPolicy(HalfInt(40), rel_tol=1e-14))
    eng = LossyEngine(r, loss)
    for alpha, beta in FULL_TRACE_ANGLES:
        value, probability, cutoff, converged = eng.correlation(alpha, beta, None)
        assert (probability, cutoff, converged) == (1.0, None, True)
        dist = deep.joint(alpha, beta)
        assert dist.converged
        assert abs(value - dist.correlation()) <= 1e-12 * math.sinh(2 * r) ** 2 / 8
    assert eng._kernel_cache == {}


@pytest.mark.parametrize("loss", FULL_TRACE_LOSSES.values(), ids=FULL_TRACE_LOSSES.keys())
def test_full_trace_closed_form_matches_oracle(loss):
    # at r = 0.05 four photons per mode leave a truncation error near 1e-13
    eng = LossyEngine(0.05, loss)
    for alpha, beta in FULL_TRACE_ANGLES:
        want = simulate_joint(0.05, loss, alpha, beta, 4).correlation()
        assert abs(eng.correlation(alpha, beta, None)[0] - want) <= 1e-12


@pytest.mark.parametrize("r, eta", [(0.3, 0.8), (0.9, 0.5), (1.4, 1.0), (0.7, 0.0)])
def test_full_trace_closed_form_at_equal_loss(r, eta):
    eng = LossyEngine(r, LossConfig.equal_eta(eta))
    scale = math.sinh(2 * r) ** 2 / 8
    for alpha, beta in FULL_TRACE_ANGLES:
        want = -(eta**2) * scale * math.cos(alpha - beta)
        assert abs(eng.correlation(alpha, beta, None)[0] - want) <= 1e-15 * scale


def test_full_trace_ignores_the_policy():
    # the closed form is exact under any policy; a capped full-trace moment is the joint distribution's
    capped = LossyEngine(0.4, LossConfig.equal_eta(0.8), CAP_POLICY)
    want = LossyEngine(0.4, LossConfig.equal_eta(0.8)).correlation(0.3, 0.9, None)
    assert capped.correlation(0.3, 0.9, None) == want
    assert capped._kernel_cache == {}
    assert capped.joint(0.3, 0.9).correlation() != want[0]


@pytest.mark.parametrize("r", [5.0, 10.0, 20.0, 170.0])
@pytest.mark.parametrize("loss", FULL_TRACE_LOSSES.values(), ids=FULL_TRACE_LOSSES.keys())
def test_full_trace_matches_its_exact_rational_evaluation(r, loss):
    # the closed form without rounding, on the same float inputs: the etas, sinh(r)^2, sinh(2r),
    # sqrt(a1 a2 b1 b2) and the cosines and sines; the n^2 coefficient cancels, to 0 for dark-and-perfect
    a1, a2, b1, b2 = loss.etas()
    f1, f2, g1, g2 = map(Fraction, (a1, a2, b1, b2))
    n = Fraction(math.sinh(r) ** 2)
    zz = ((f1 * g2 + f2 * g1) * n * n - (f1 * g1 + f2 * g2) * (2 * n * n + n)) / 4
    ladders = -Fraction(math.sqrt(a1 * a2 * b1 * b2)) * Fraction(math.sinh(2 * r)) ** 2 / 2
    eng = LossyEngine(r, loss)
    for alpha, beta in FULL_TRACE_ANGLES:
        cc = Fraction(math.cos(alpha)) * Fraction(math.cos(beta))
        ss = Fraction(math.sin(alpha)) * Fraction(math.sin(beta))
        want = float(cc * zz + ss / 4 * ladders)
        assert abs(eng.correlation(alpha, beta, None)[0] - want) <= 1e-15 * abs(want), (alpha, beta)


@pytest.mark.parametrize("loss", FULL_TRACE_LOSSES.values(), ids=FULL_TRACE_LOSSES.keys())
def test_full_trace_overflow_is_a_value_error(loss):
    # its terms grow as exp(4r)/4 and pass the largest float from r = 177.79 or so; below, values are unchanged
    at_170 = {(0.8,) * 4: -1.8964745641521677e293, (0.6, 0.95, 0.7, 0.8): -1.8698578115035205e293}
    if loss.etas() in at_170:
        assert LossyEngine(170.0, loss).correlation(0.7, -0.4, None)[0] == at_170[loss.etas()]
    for r in (177.8, 300.0, 711.0):
        with pytest.raises(ValueError, match=f"overflows at r = {r}"):
            LossyEngine(r, loss).correlation(0.7, -0.4, None)


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


def test_sector_probability_is_one_number_per_sector():
    # the kernel's trace: the same under both conventions, at every angle, and in correlation()
    eng = LossyEngine(0.4, LossConfig(0.9, 0.7, 0.85, 0.6))
    s_star = HalfInt(4)
    _, want, _, _ = eng.correlation(0.3, -0.7, s_star)
    for angles in [AngleTriple(0.3, -0.7, 0.1), AngleTriple(1.0, 2.0, 3.0), AngleTriple(-0.4, 0.9, -1.7)]:
        for convention in ("conditioned", "unconditioned"):
            assert eng.mermin_sides(s_star, angles, convention=convention).sector_probability == want


def test_sector_probability_routes_agree():
    r, eta = 0.45, 0.7
    eng = LossyEngine(r, LossConfig.equal_eta(eta), TruncationPolicy(HalfInt(20), rel_tol=1e-9))
    s_star = HalfInt(2)
    dist = eng.joint(0.4, -0.9, sectors=(s_star, s_star))
    _, p_corr, _, _ = eng.correlation(0.4, -0.9, s_star)
    assert dist.total_mass() == pytest.approx(p_corr, rel=1e-9)


# ----------------------------------------------------------------- truncation


def test_monotone_truncation():
    r, eta = 0.6, 0.7
    s_star = HalfInt(2)
    rel_tol = 1e-6
    eng = LossyEngine(r, LossConfig.equal_eta(eta), TruncationPolicy(HalfInt(40), rel_tol=rel_tol))
    dist = eng.joint(0.5, -0.5, sectors=(s_star, s_star))
    assert dist.converged
    # extending the cutoff must not move converged entries beyond tolerance
    wider = LossyEngine(r, LossConfig.equal_eta(eta), TruncationPolicy(dist.s_cutoff_used + HalfInt(8), 0.0))
    dist2 = wider.joint(0.5, -0.5, sectors=(s_star, s_star))
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
    policy = TruncationPolicy(HalfInt(20), rel_tol=1e-6)
    for loss in (LossConfig.equal_eta(0.8), LossConfig(0.9, 0.7, 0.8, 0.6)):
        eng = LossyEngine(0.5, loss, policy)
        dists = [eng.joint(alpha, beta) for alpha, beta in ((0.3, -0.4), (0.0, 0.0))]
        assert dists[0].s_cutoff_used == dists[1].s_cutoff_used
        for (alpha, beta), dist in zip(((0.3, -0.4), (0.0, 0.0)), dists):
            again = LossyEngine(0.5, loss, policy).joint(alpha, beta)
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
        for sectors in ((HalfInt(4), HalfInt(4)), (HalfInt(3), HalfInt(5))):
            for n in range(5, 15, 3):
                lo = LossyEngine(0.6, loss, TruncationPolicy(HalfInt(n), 0.0))
                hi = LossyEngine(0.6, loss, TruncationPolicy(HalfInt(n + 2), 0.0))
                for alpha, beta in rng.uniform(-math.pi, math.pi, (3, 2)):
                    p_lo = lo.joint(alpha, beta, sectors=sectors)
                    p_hi = hi.joint(alpha, beta, sectors=sectors)
                    step = p_hi.total_mass() - p_lo.total_mass()
                    moved = p_hi.largest_difference(p_lo)[0]
                    assert moved <= step + 1e-15


def test_nonconvergence_flagged_not_raised():
    eng = LossyEngine(0.9, LossConfig.equal_eta(0.5), TruncationPolicy(HalfInt(3), rel_tol=1e-12))
    dist = eng.joint(0.3, -0.3, sectors=(HalfInt(1), HalfInt(1)))
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
    direct = LossyEngine(0.4, LossConfig.equal_eta(0.9)).mermin_sides(HalfInt(2), theta_triple(0.3))
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


def test_default_policy_equals_an_explicit_one():
    for loss in (LossConfig.equal_eta(0.9), LossConfig(0.9, 0.7, 0.85, 0.6)):
        default, explicit = LossyEngine(0.4, loss), LossyEngine(0.4, loss, TruncationPolicy())
        assert default.policy == explicit.policy == TruncationPolicy(None, 1e-6)
        for s in (HalfInt(1), HalfInt(2), HalfInt(5)):
            for convention in ("conditioned", "unconditioned"):
                want = explicit.mermin_sides(s, theta_triple(0.3), convention)
                assert default.mermin_sides(s, theta_triple(0.3), convention) == want
        assert list(default._kernel_cache) == [((1, 1),), ((2, 2),), ((5, 5),)]


@pytest.mark.parametrize("ts", [1, 2, 4, 7])
@pytest.mark.parametrize("max_s", [None, 0.5, 1.5, 3, 4.5, 20, 200])
def test_policy_cap_clamps_the_start(ts, max_s):
    # caps below, at and above s_star + 2 keep the command line's earlier rule: start at
    # s_star + 2 clamped to the cap, cap at max_s (None: s_star + 15), neither below s_star
    t_max = ts + 30 if max_s is None else HalfInt.of(max_s).twice
    want_start, want_cap = max(min(ts + 4, t_max), ts), max(t_max, ts)
    assert TruncationPolicy(max_s, 1e-7).cap(ts) == want_cap
    # with no tolerance to meet, a sum that starts below the cap stops after one step;
    # one that starts at the cap stops there, unconverged, since r > 0 leaves a tail
    eng = LossyEngine(0.3, LossConfig.equal_eta(0.9), TruncationPolicy(max_s, math.inf))
    _, tcut, ok = eng._kernels(((ts, ts),))
    assert (tcut, ok) == ((min(want_start + 2, want_cap), True) if want_start < want_cap else (want_cap, False))


def test_policy_rejects_a_cap_above_the_engine_limit():
    with pytest.raises(ValueError, match="capped"):
        TruncationPolicy(200.5, 1e-6)
    with pytest.raises(ValueError, match="capped"):
        TruncationPolicy().cap(HalfInt(390).twice)
    with pytest.raises(ValueError, match="nonnegative"):
        TruncationPolicy(rel_tol=math.nan)
    assert (TruncationPolicy(HalfInt(5)).cap(7), TruncationPolicy(200).cap(7), TruncationPolicy().cap(370)) == (7, 400, 400)


def test_engine_checks_the_cap_before_any_kernel(monkeypatch):
    # a small max_s does not lift the limit: the cap is never below the outcome spin
    monkeypatch.setattr(LossyEngine, "_t_sector", lambda *args: pytest.fail("a kernel was built"))
    eng = LossyEngine(0.3, LossConfig.equal_eta(0.9), TruncationPolicy(max_s=1))
    with pytest.raises(ValueError, match="capped at s = 200, not 201"):
        eng.mermin_sides(201, theta_triple(0.001))
    assert eng._kernel_cache == {}


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
    # 8s + 1 samples of the violation: every coefficient above degree
    # 4s = 2 * ts must vanish
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


PER_SIDE_EQUAL_LOSSES = {
    "alice-better": LossConfig(0.9, 0.9, 0.7, 0.7),
    "bob-better": LossConfig(0.6, 0.6, 0.95, 0.95),
    "equal": LossConfig.equal_eta(0.85),
}


def test_per_side_equal_loss_never_reaches_the_offset_machinery(monkeypatch):
    # a kernel of one slice is built and contracted by plain products, so every call serves without them
    loss = PER_SIDE_EQUAL_LOSSES["alice-better"]

    def calls():
        eng = LossyEngine(0.4, loss, TruncationPolicy(HalfInt(6), 0.0))
        full, one = eng.joint(0.7, -0.4).blocks, eng.joint(0.7, -0.4, sectors=(1, 2)).blocks
        rest = eng.mermin_sides(2, theta_triple(0.3)), eng.correlation(0.3, -0.2, 2), optimize_angles(2, 0.4, loss)
        return {**full, "one": one[(2, 4)]}, rest

    want = calls()
    for name in ("_contract", "_pair_products", "_runs", "_shifted"):
        monkeypatch.setattr(lossy, name, lambda *args, name=name: pytest.fail(f"{name} was called"))
    blocks, rest = calls()
    assert blocks.keys() == want[0].keys() and all(np.array_equal(blocks[k], want[0][k]) for k in blocks)
    assert rest == want[1]


@pytest.mark.parametrize("ts", [1, 2, 3, 5])
@pytest.mark.parametrize("loss", PER_SIDE_EQUAL_LOSSES.values(), ids=PER_SIDE_EQUAL_LOSSES.keys())
def test_equal_loss_optimum_reads_one_lhs_row_and_one_record(ts, loss, monkeypatch):
    contract, sides = LossyEngine._framed_contract, LossyEngine.mermin_sides
    grids, records = [], []

    def recording_contract(self, kernels, alphas, betas):
        grids.append((len(alphas), len(betas)))
        return contract(self, kernels, alphas, betas)

    def recording_sides(self, *args, **kwargs):
        records.append(args)
        return sides(self, *args, **kwargs)

    monkeypatch.setattr(LossyEngine, "_framed_contract", recording_contract)
    monkeypatch.setattr(LossyEngine, "mermin_sides", recording_sides)
    optimize_angles(HalfInt(ts), 0.4, loss)
    assert grids == [(2 * ts + 1, 1), (1, 1)]
    assert len(records) == 1


@pytest.mark.parametrize("ts", [1, 2, 3, 5])
@pytest.mark.parametrize("loss", PER_SIDE_EQUAL_LOSSES.values(), ids=PER_SIDE_EQUAL_LOSSES.keys())
@pytest.mark.parametrize("convention", ["conditioned", "unconditioned"])
def test_one_lhs_row_interpolates_mermin_sides(ts, loss, convention):
    # loss equal within each side leaves the lhs a function of alpha - beta, so the row at beta = 0 fixes it
    s = HalfInt(ts)
    row = lossy._lhs_coefficients(LossyEngine(0.4, loss), s, convention, full=False)[0][:, 0]
    k = np.fft.fftfreq(2 * ts + 1, 1.0 / (2 * ts + 1))
    fresh = LossyEngine(0.4, loss)
    for alpha, beta in np.random.default_rng(ts).uniform(-2 * math.pi, 2 * math.pi, (20, 2)):
        want = fresh.mermin_sides(s, AngleTriple(alpha, beta, 0.0), convention).lhs
        got = float((row @ np.exp(1j * k * (alpha - beta))).real)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (alpha, beta)


# ------------------------------------------------------- unequal-loss search


UNEQUAL_LOSSES = [LossConfig(0.9, 0.8, 0.85, 0.75), LossConfig(0.9, 0.7, 0.8, 0.6)]


def _objective_path():
    """Gamma-only, alpha-only and beta-only moves and revisits, as a line search makes them."""
    a, b, g = 2.0, -1.2, 0.3
    path = [(a, b, g), (a, b, g)]
    path += [(a, b, g + d) for d in (0.25, -0.4, 1.1)]  # gamma only
    path += [(a + d, b, g + 1.1) for d in (0.3, -0.7)]  # alpha only
    path += [(a - 0.7, b + d, g + 1.1) for d in (0.2, 2.5)]  # beta only
    path += [(a, b, g), (a - 0.7, b + 0.2, -3.0), (a + 0.3, b, 0.5)]  # revisits
    return path


@pytest.mark.parametrize("ts", [1, 2, 3, 5])
@pytest.mark.parametrize("loss", UNEQUAL_LOSSES, ids=["mild", "strong"])
@pytest.mark.parametrize("convention", ["conditioned", "unconditioned"])
def test_descent_objective_is_mermin_sides_bit_for_bit(ts, loss, convention):
    # along each angle the rhs is formed exactly as mermin_sides forms it
    s = HalfInt(ts)
    line = _descent_lines(LossyEngine(0.4, loss), s, convention)
    fresh = LossyEngine(0.4, loss)
    for point in _objective_path():
        rec = fresh.mermin_sides(s, AngleTriple(*point), convention)
        for i in range(3):
            assert line(point, i)(point[i])[1] == rec.rhs, (point, i)


@pytest.mark.parametrize("ts", [1, 2, 3, 5])
@pytest.mark.parametrize("loss", UNEQUAL_LOSSES, ids=["mild", "strong"])
@pytest.mark.parametrize("convention", ["conditioned", "unconditioned"])
def test_descent_objective_matches_mermin_sides(ts, loss, convention):
    # the lhs comes from an interpolant, so agreement is to roundoff, not bit for bit
    s = HalfInt(ts)
    line = _descent_lines(LossyEngine(0.4, loss), s, convention)
    fresh = LossyEngine(0.4, loss)
    path = _objective_path()
    path += [tuple(p) for p in np.random.default_rng(ts).uniform(-2 * math.pi, 2 * math.pi, (20, 3))]
    for point in path:
        rec = fresh.mermin_sides(s, AngleTriple(*point), convention)
        for i in range(3):
            lhs, rhs = line(point, i)(point[i])
            assert rhs == rec.rhs, (point, i)
            assert abs((rhs - lhs) - rec.violation) <= 1e-12 * max(1.0, abs(rec.lhs)), (point, i)


@pytest.mark.parametrize("ts", [1, 2, 3, 5])
@pytest.mark.parametrize("loss", UNEQUAL_LOSSES, ids=["mild", "strong"])
def test_unequal_loss_optimum_reads_one_lhs_grid_and_one_record(ts, loss, monkeypatch):
    # every line-search point reads the interpolant: no point contracts the kernel
    contract, sides = LossyEngine._framed_contract, LossyEngine.mermin_sides
    grids, records = [], []

    def recording_contract(self, kernels, alphas, betas):
        grids.append((len(alphas), len(betas)))
        return contract(self, kernels, alphas, betas)

    def recording_sides(self, *args, **kwargs):
        records.append(args)
        return sides(self, *args, **kwargs)

    monkeypatch.setattr(LossyEngine, "_framed_contract", recording_contract)
    monkeypatch.setattr(LossyEngine, "mermin_sides", recording_sides)
    optimize_angles(HalfInt(ts), 0.4, loss)
    assert grids == [(2 * ts + 1, 2 * ts + 1), (1, 1)]
    assert len(records) == 1


@pytest.mark.parametrize("ts", [1, 2, 3, 5])
@pytest.mark.parametrize("loss", UNEQUAL_LOSSES, ids=["mild", "strong"])
@pytest.mark.parametrize("convention", ["conditioned", "unconditioned"])
def test_lhs_is_trigonometric_polynomial_of_degree_2s_in_each_angle(ts, loss, convention):
    # twice the samples per angle the descent's interpolant reads: every
    # coefficient above degree 2s = ts in alpha or in beta must vanish
    s = HalfInt(ts)
    n = 4 * ts + 1
    grid = 2 * math.pi * np.arange(n) / n
    eng = LossyEngine(0.4, loss)
    f = np.array(
        [[eng.mermin_sides(s, AngleTriple(a, b, 0.0), convention=convention).lhs for b in grid] for a in grid]
    )
    coef = np.abs(np.fft.fft2(f)) / n**2
    high = np.abs(np.fft.fftfreq(n, 1.0 / n)) > ts + 0.5
    assert coef[high].max() <= 1e-12 * np.abs(f).max()
    assert coef[:, high].max() <= 1e-12 * np.abs(f).max()


def test_descent_interpolant_off_the_record_is_an_internal_error(monkeypatch):
    fft2 = np.fft.fft2

    def shifted(samples):
        out = fft2(samples)
        out[0, 0] += 1e-6 * out.size  # every interpolated lhs moves by 1e-6
        return out

    monkeypatch.setattr(lossy.np.fft, "fft2", shifted)
    with pytest.raises(InternalConsistencyError, match="interpolant off by"):
        optimize_angles(HalfInt(2), 0.3, UNEQUAL_LOSSES[0])


def test_unconditioned_interpolant_check_is_held_in_the_conditioned_scale():
    # at s = 3, r = 0.1 the sector probability is 1.9e-12: an unconditioned gap of 3e-13 is half the violation
    eng, s, angles = LossyEngine(0.1, LossConfig.equal_eta(0.9)), HalfInt(6), theta_triple(0.1)
    for convention in ("conditioned", "unconditioned"):
        rec = eng.mermin_sides(s, angles, convention)
        with pytest.raises(InternalConsistencyError, match="interpolant off by"):
            lossy._checked_optimum(eng, s, convention, angles, 1.5 * rec.violation, "defect")
        assert lossy._checked_optimum(eng, s, convention, angles, rec.violation, "defect") == (angles, rec)


def test_negative_probability_is_judged_against_its_block_mass():
    # a block of mass 1e-12 that is 10% negative is an error, not roundoff to clip
    with pytest.raises(InternalConsistencyError, match="negative probability -1.000e-13"):
        lossy._nonnegative(np.array([[1e-12, -1e-13]]), 0, 1)
    # rounding at 1e-17 of the mass, and negatives among denormals, are clipped
    for p in (np.array([[1.0, -1e-17]]), np.array([[1e-310, -1e-312]])):
        assert np.array_equal(lossy._nonnegative(p, 0, 1), np.maximum(p, 0.0))


@pytest.mark.parametrize("ts", [2, 4, 6])
@pytest.mark.parametrize("loss", [LossConfig(0.9, 0.9, 0.7, 0.7), LossConfig(0.6, 0.6, 0.95, 0.95)])
def test_loss_equal_within_sides_takes_the_theta_search(ts, loss):
    # each side's loss commutes with its analyzer, so the 1-D search is exact
    s = HalfInt(ts)
    angles, rec = optimize_angles(s, 0.4, loss)
    assert angles.gamma == 0.0 and angles.beta == -angles.alpha
    _, descent = lossy._coordinate_descent(LossyEngine(0.4, loss), s, "conditioned")
    assert rec.violation >= descent.violation - 1e-12


@pytest.mark.parametrize(
    "s,r,loss,convention,golden",
    [
        (1, 0.3, UNEQUAL_LOSSES[0], "conditioned",
         (2.407762562054086, -1.287447999763562, 0.5508939078365614, 0.16214799256689671)),
        (1.5, 0.4, UNEQUAL_LOSSES[1], "unconditioned",
         (2.3876331125780252, -1.1563874989560006, 0.5444642233309805, 0.00025965909395815915)),
        (2, 0.3, UNEQUAL_LOSSES[0], "conditioned",
         (2.2320312857679157, -1.1951120175220562, 0.4931294811503362, 0.20337743797913638)),
    ],
)
def test_unequal_loss_optimum_meets_golden(s, r, loss, convention, golden):
    # golden (alpha, beta, gamma, violation): the descent that evaluated mermin_sides
    # afresh at every point.  Another BLAS build may round differently and move the
    # line-search path, so angles are held to 1e-6 and the violation to 1e-12.
    angles, rec = optimize_angles(s, r, loss, convention=convention)
    fresh = LossyEngine(r, loss).mermin_sides(s, angles, convention=convention)
    assert fresh.violation == rec.violation
    assert np.allclose([angles.alpha, angles.beta, angles.gamma], golden[:3], rtol=0, atol=1e-6)
    assert abs(rec.violation - golden[3]) <= 1e-12


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
    for eta in (0.5, 0.8):
        loss = LossConfig.equal_eta(eta)
        reference = simulate_joint(r, loss, alpha, beta, cutoff=4, sector_max=cap).correlation()
        derived = LossyEngine(r, loss, TruncationPolicy(cap, 0.0)).joint(alpha, beta).correlation()
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
    exact_basis = numerics._sx_basis

    def perturbed(ts):
        # a defect after normalising, which no column scaling removes
        u = exact_basis(ts)
        u[0, 0] += 1e-8
        return u

    numerics._sx_eigenvectors.cache_clear()
    numerics._wigner_matrix_cached.cache_clear()
    monkeypatch.setattr(numerics, "_sx_basis", perturbed)
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

    # a record off the theta interpolant (a curve of higher degree than 4s) fails the optimizer's check
    exact = LossyEngine.mermin_sides

    def rippled(self, *args, **kwargs):
        rec = exact(self, *args, **kwargs)
        return dataclasses.replace(rec, violation=rec.violation + 1e-6 * math.cos(40 * rec.angles.alpha))

    monkeypatch.setattr(LossyEngine, "mermin_sides", rippled)
    with pytest.raises(InternalConsistencyError, match="not a trigonometric polynomial"):
        optimize_angles(HalfInt(2), 0.3, LossConfig.equal_eta(0.9))
