"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from merminbell.ideal import ideal_mermin_sides, theta_triple
from merminbell.loss import LossConfig, decohere_spin_op
from merminbell.lossy import LossyEngine, TruncationPolicy, optimize_angles
from merminbell.numerics import HalfInt, binom_int, wigner_d_matrix
from merminbell.oracle import simulate_joint
from merminbell.validation import (
    ORACLE_TRIPLES,
    REDUCTION_TRIPLES,
    exponent_adjudication_report,
)

MARGIN = 1e-10


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name} {detail}".rstrip())
    assert ok, f"{name} failed: {detail}"


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_eta1_reduction():
    t0 = time.time()
    worst = 0.0
    for r in (0.2, 0.5):
        eng = LossyEngine(r, LossConfig.equal_eta(1.0))
        for ts in (1, 2, 3, 4, 5):
            s = HalfInt(ts)
            for ang in REDUCTION_TRIPLES:
                got = eng.mermin_sides(s, ang)
                want = ideal_mermin_sides(s, ang)
                worst = max(worst, abs(got.lhs - want.lhs), abs(got.rhs - want.rhs))
    elapsed = time.time() - t0
    _report(
        "criterion 1: eta=1 reduction (tol 1e-9)",
        worst <= 1e-9 and elapsed < 120.0,
        f"max error {worst:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------- criterion 2


def test_criterion_2_oracle_equivalence():
    t0 = time.time()
    s_cap = HalfInt(4)
    policy = TruncationPolicy(s_cap, 0.0)
    max_joint = 0.0
    max_corr = 0.0
    for r in (0.2, 0.5):
        for eta in (0.5, 0.8, 1.0):
            loss = LossConfig.equal_eta(eta)
            eng = LossyEngine(r, loss, policy)
            for ang in ORACLE_TRIPLES:
                want = simulate_joint(r, loss, ang.alpha, ang.beta, cutoff=4, sector_max=s_cap)
                got = eng.joint(ang.alpha, ang.beta)
                max_joint = max(max_joint, want.largest_difference(got)[0])
                for ts in (1, 2, 3, 4):
                    s_star = HalfInt(ts)
                    p = want.sector_probability(s_star, s_star)
                    if p < 1e-12:
                        continue
                    c_or = want.correlation(sector=(s_star, s_star), conditioned=True)
                    c_cl, _, _, _ = eng.correlation(ang.alpha, ang.beta, s_star)
                    max_corr = max(max_corr, abs(c_or - c_cl))
    adjud = exponent_adjudication_report()
    elapsed = time.time() - t0
    _report(
        "criterion 2: oracle equivalence (tol 1e-8) + exponent adjudication",
        max_joint <= 1e-8
        and max_corr <= 1e-8
        and adjud["confirmed"] == "sector_energy_form"
        and elapsed < 900.0,
        f"joint {max_joint:.2e}, corr {max_corr:.2e}, confirmed={adjud['confirmed']}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------- criterion 3


def _positive_window(eng, s_star, thetas):
    vals = np.array([eng.mermin_sides(s_star, theta_triple(float(t))).violation for t in thetas])
    pos = vals > 0
    runs = int(np.sum(pos[1:] & ~pos[:-1])) + int(pos[0])
    return vals, int(pos.sum()), runs


def _window_upper_edge(eng, s_star, lo, hi):
    # bisection for the outer zero crossing of the violation curve
    def f(t):
        return eng.mermin_sides(s_star, theta_triple(t)).violation

    assert f(lo) > 0 > f(hi)
    for _ in range(48):
        mid = (lo + hi) / 2.0
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def test_criterion_3_trend_reproduction():
    t0 = time.time()
    s_one = HalfInt(2)

    # (a) single positive window at s=1, r=0.5, shrinking from eta=1.0 to 0.7
    thetas = np.linspace(0.02, 1.2, 32)
    edges = []
    counts = []
    for eta in (1.0, 0.9, 0.8, 0.7):
        eng = LossyEngine(0.5, LossConfig.equal_eta(eta))
        vals, n_pos, runs = _positive_window(eng, s_one, thetas)
        assert runs == 1, f"eta={eta}: expected one positive window, got {runs}"
        counts.append(n_pos)
        edges.append(_window_upper_edge(eng, s_one, 0.3, 1.2))
    ok_a = all(b <= a for a, b in zip(counts, counts[1:])) and all(
        b < a - MARGIN for a, b in zip(edges, edges[1:])
    )
    _report(
        "criterion 3a: single shrinking violation window (s=1, r=0.5)",
        ok_a,
        f"window edges {['%.4f' % e for e in edges]}",
    )

    # shared grid for (b), (c), (d): eta 0.4..1.0 step 0.05, r in {0.2, 0.4}
    etas = [round(0.4 + 0.05 * i, 2) for i in range(13)]
    spins = [HalfInt(t) for t in range(1, 10)]
    angles = {}
    for s in spins:
        angles[s.twice], _ = optimize_angles(s, 0.3, LossConfig.equal_eta(1.0))
    table = {}
    for r in (0.2, 0.4):
        for eta in etas:
            eng = LossyEngine(r, LossConfig.equal_eta(eta))
            for s in spins:
                rec = eng.mermin_sides(s, angles[s.twice])
                assert rec.converged, (r, eta, s)
                table[(r, eta, s.twice)] = rec.violation

    # (b) weaker squeezing violates at least as strongly for eta < 1
    ok_b = True
    for eta in etas:
        if eta >= 1.0:
            continue
        for s in spins:
            if not table[(0.2, eta, s.twice)] >= table[(0.4, eta, s.twice)] - MARGIN:
                ok_b = False
    _report("criterion 3b: violation(r=0.2) >= violation(r=0.4) for eta < 1", ok_b)

    # (c) normalized violation (outcomes scaled to +-1, i.e. divided by s^2)
    # is nonincreasing in s at fixed (eta, r)
    ok_c = True
    worst_c = None
    for r in (0.2, 0.4):
        for eta in etas:
            prev = None
            for s in spins:
                v = table[(r, eta, s.twice)] / s.value**2
                if prev is not None and v > prev + MARGIN:
                    ok_c = False
                    worst_c = (r, eta, s.value, v, prev)
                prev = v
    _report(
        "criterion 3c: normalized violation nonincreasing in s",
        ok_c,
        "" if ok_c else f"violated at {worst_c}",
    )

    # (d) at eta = 1 the sector-conditioned violation is r independent
    ok_d = True
    for s in spins:
        vals = [table[(r, 1.0, s.twice)] for r in (0.2, 0.4)]
        if abs(vals[0] - vals[1]) > 1e-9:
            ok_d = False
    _report("criterion 3d: eta=1 violation independent of r (tol 1e-9)", ok_d)

    elapsed = time.time() - t0
    _report("criterion 3 runtime budget (< 30 min)", elapsed < 1800.0, f"{elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 4


def test_criterion_4_numeric_kernels():
    # d-matrix unitarity (1e-10) and composition (1e-9), up to 2s = 340
    worst_u = 0.0
    worst_c = 0.0
    for ts in (*range(1, 10), 20, 40, 60, 80, 100, 140, 200, 340):
        for alpha in np.linspace(0.0, 2 * math.pi, 8):
            d = wigner_d_matrix(HalfInt(ts), float(alpha))
            worst_u = max(worst_u, float(np.max(np.abs(d @ d.T - np.eye(ts + 1)))))
        for a, b in ((0.4, 0.9), (1.7, -0.6)):
            left = wigner_d_matrix(HalfInt(ts), a) @ wigner_d_matrix(HalfInt(ts), b)
            worst_c = max(
                worst_c, float(np.max(np.abs(left - wigner_d_matrix(HalfInt(ts), a + b))))
            )

    # loss-channel trace preservation (1e-12)
    worst_t = 0.0
    for ts in range(0, 7):
        for tm in range(-ts, ts + 1, 2):
            for eta1, eta2 in ((1.0, 1.0), (0.85, 0.85), (0.6, 0.95), (0.3, 0.7)):
                terms = decohere_spin_op(
                    HalfInt(ts), HalfInt(tm), HalfInt(ts), HalfInt(tm), eta1, eta2
                )
                trace = sum(t.value for t in terms if t.ket == t.bra)
                worst_t = max(worst_t, abs(trace - 1.0))

    # case-table bound consistent with the zero-binomial guard (exact)
    ok_bound = True
    from merminbell.loss import min_output_spin

    for ts in range(0, 7):
        for tsp in range(0, 7):
            for tm in range(-ts, ts + 1, 2):
                for tmp in range(-tsp, tsp + 1, 2):
                    lo = min_output_spin(HalfInt(ts), HalfInt(tm), HalfInt(tsp), HalfInt(tmp)).twice
                    n_up, n_dn = (ts + tm) // 2, (ts - tm) // 2
                    np_up, np_dn = (tsp + tmp) // 2, (tsp - tmp) // 2
                    for tsig in range(0, lo):
                        for tmu in range(-tsig, tsig + 1, 2):
                            k_up, k_dn = (tsig + tmu) // 2, (tsig - tmu) // 2
                            w = (
                                binom_int(n_up, k_up)
                                * binom_int(np_up, k_up + np_up - n_up)
                                * binom_int(n_dn, k_dn)
                                * binom_int(np_dn, k_dn + np_dn - n_dn)
                            )
                            if w != 0:
                                ok_bound = False

    # CHSH threshold spin, exact expression to four digits
    threshold = math.sqrt(2.0) / (3.0 - math.sqrt(2.0))
    ok_chsh = round(threshold, 4) == 0.8918 and round(threshold, 2) == 0.89

    _report(
        "criterion 4: numeric kernel suites",
        worst_u <= 1e-10 and worst_c <= 1e-9 and worst_t <= 1e-12 and ok_bound and ok_chsh,
        f"unitarity {worst_u:.1e}, composition {worst_c:.1e}, trace {worst_t:.1e}, "
        f"threshold {threshold:.4f}",
    )


# ---------------------------------------------------------------- criterion 5


def test_criterion_5_cli_determinism(tmp_path):
    args = [
        "sweep-theta", "--s", "1", "--r", "0.5", "--eta", "1.0", "0.9", "0.8",
        "--theta-min", "0.05", "--theta-max", "0.8", "--theta-steps", "8",
    ]
    out1 = tmp_path / "w1.csv"
    out8 = tmp_path / "w8.csv"
    for workers, out in (("1", out1), ("8", out8)):
        res = subprocess.run(
            [sys.executable, "-m", "merminbell"] + args + ["--workers", workers, "--out", str(out)],
            capture_output=True,
            timeout=600,
        )
        assert res.returncode == 0, res.stderr
    identical = out1.read_bytes() == out8.read_bytes()
    _report("criterion 5: byte-identical output for 1 vs 8 workers", identical)


# ---------------------------------------------------------------- criterion 6


def test_criterion_6_desk_scale_performance(tmp_path):
    out = tmp_path / "perf.csv"
    t0 = time.time()
    res = subprocess.run(
        [
            sys.executable, "-m", "merminbell", "sweep-theta",
            "--s", "2", "--r", "0.5", "--eta", "0.8",
            "--theta-min", "0.01", "--theta-max", "0.8", "--theta-steps", "64",
            "--policy-tol", "1e-6", "--workers", "8", "--out", str(out),
        ],
        capture_output=True,
        timeout=600,
    )
    elapsed = time.time() - t0
    assert res.returncode == 0, res.stderr
    import csv as _csv

    rows = list(_csv.DictReader(out.read_text().splitlines()))
    all_converged = len(rows) == 64 and all(r["converged"] == "true" for r in rows)
    _report(
        "criterion 6: 64-point theta sweep (s=2, r=0.5, eta=0.8) under 10 min",
        elapsed < 600.0 and all_converged,
        f"{elapsed:.1f}s, {len(rows)} converged rows",
    )
