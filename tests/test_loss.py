import itertools
import math

import numpy as np
import pytest

from merminbell.loss import (
    LossConfig,
    decohere_fock,
    decohere_single,
    decohere_spin_op,
    min_output_spin,
)
from merminbell.numerics import HalfInt, binom_int
from merminbell.schwinger import SpinLabel


# --------------------------------------------------------------- loss config


def test_loss_config_validation_and_flags():
    cfg = LossConfig(0.9, 0.9, 0.9, 0.9)
    assert cfg.equal
    assert not LossConfig(0.9, 0.8, 0.9, 0.9).equal
    assert cfg.equal_within_sides and LossConfig(0.9, 0.9, 0.7, 0.7).equal_within_sides
    assert not LossConfig(0.9, 0.7, 0.9, 0.7).equal_within_sides
    assert not LossConfig(0.9, 0.9, 0.8, 0.7).equal_within_sides
    assert LossConfig.equal_eta(0.5).etas() == (0.5, 0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        LossConfig(1.1, 0.5, 0.5, 0.5)


# ------------------------------------------------------------- decohere_fock


def test_decohere_fock_examples():
    assert decohere_fock(1, 0.75) == pytest.approx({0: 0.25, 1: 0.75})
    assert decohere_fock(3, 1.0) == pytest.approx({0: 0.0, 1: 0.0, 2: 0.0, 3: 1.0})
    assert decohere_fock(2, 0.5) == pytest.approx({0: 0.25, 1: 0.5, 2: 0.25})


def test_decohere_fock_normalized():
    for n in range(0, 12):
        for eta in (0.0, 0.15, 0.6, 1.0):
            assert sum(decohere_fock(n, eta).values()) == pytest.approx(1.0, abs=1e-12)


def test_decohere_fock_beyond_the_factorial_table():
    # photon counts past the engine's precomputed ln k! table go through lgamma
    p = decohere_fock(1000, 0.5)
    assert len(p) == 1001
    assert sum(p.values()) == pytest.approx(1.0, abs=1e-12)


# ----------------------------------------------------------- decohere_single


def _beamsplitter_trace_oracle(n, n_p, eta):
    """Two-mode beamsplitter with vacuum ancilla, partial trace over the
    reflected port; written independently of the production formula."""
    dim = max(n, n_p) + 1
    out = np.zeros((dim, dim))
    for lost in range(0, min(n, n_p) + 1):
        k = n - lost
        kp = n_p - lost
        amp_ket = math.sqrt(binom_int(n, k)) * eta ** (k / 2.0) * (1 - eta) ** ((n - k) / 2.0)
        amp_bra = math.sqrt(binom_int(n_p, kp)) * eta ** (kp / 2.0) * (1 - eta) ** ((n_p - kp) / 2.0)
        out[k, kp] += amp_ket * amp_bra
    return out


@pytest.mark.parametrize("n,n_p", [(0, 0), (1, 0), (1, 1), (2, 1), (3, 2), (4, 4), (2, 4)])
@pytest.mark.parametrize("eta", [0.0, 0.3, 0.75, 1.0])
def test_decohere_single_vs_beamsplitter_oracle(n, n_p, eta):
    want = _beamsplitter_trace_oracle(n, n_p, eta)
    got = np.zeros_like(want)
    for term in decohere_single(n, n_p, eta):
        got[term.ket, term.bra] += term.value
    assert np.max(np.abs(got - want)) < 1e-12


def test_decohere_single_lossless_diagonal():
    terms = decohere_single(3, 3, 1.0)
    assert len(terms) == 1
    assert terms[0].ket == terms[0].bra == 3
    assert terms[0].value == pytest.approx(1.0)


def test_decohere_single_one_zero_single_family():
    eta = 0.6
    terms = decohere_single(1, 0, eta)
    assert len(terms) == 1
    assert (terms[0].ket, terms[0].bra) == (1, 0)
    assert terms[0].value == pytest.approx(math.sqrt(eta), rel=1e-12)


def test_decohere_single_diagonal_matches_fock():
    for n in range(0, 6):
        for eta in (0.2, 0.8):
            marg = decohere_fock(n, eta)
            for term in decohere_single(n, n, eta):
                assert term.ket == term.bra
                assert term.value == pytest.approx(marg[term.ket], rel=1e-12)


# ------------------------------------------------------------ min_output_spin


def _support_min(ts, tm, tsp, tmp):
    """Smallest sigma with a nonzero binomial term, by direct scan."""
    n_up, n_dn = (ts + tm) // 2, (ts - tm) // 2
    np_up, np_dn = (tsp + tmp) // 2, (tsp - tmp) // 2
    for tsig in range(0, ts + 1):
        for tmu in range(-tsig, tsig + 1, 2):
            k_up, k_dn = (tsig + tmu) // 2, (tsig - tmu) // 2
            kp_up = k_up + (np_up - n_up)
            kp_dn = k_dn + (np_dn - n_dn)
            w = (
                binom_int(n_up, k_up)
                * binom_int(np_up, kp_up)
                * binom_int(n_dn, k_dn)
                * binom_int(np_dn, kp_dn)
            )
            if w > 0:
                return tsig
    return None


def test_min_output_spin_table_rows():
    # the four case rows, on representative sign patterns
    assert min_output_spin(2, 1, 1, 1) == HalfInt(2)  # m,m' >= 0: s - s' = 1
    assert min_output_spin(2, -1, 1, -1) == HalfInt(0)  # m,m' <= 0: 0
    assert min_output_spin(2, 1, 1, -1) == HalfInt(3)  # (s-s'+m-m')/2 = 3/2
    assert min_output_spin(2, -1, 1, 1) == HalfInt(3)  # (s-s'-m+m')/2 = 3/2
    # negative case values clamp at zero
    assert min_output_spin(1, 1, 2, 2) == HalfInt(0)


def test_min_output_spin_never_skips_support():
    # the case bound must never exceed the true binomial-support minimum
    for ts in range(0, 7):
        for tsp in range(0, 7):
            for tm in range(-ts, ts + 1, 2):
                for tmp in range(-tsp, tsp + 1, 2):
                    bound = min_output_spin(
                        HalfInt(ts), HalfInt(tm), HalfInt(tsp), HalfInt(tmp)
                    ).twice
                    true_min = _support_min(ts, tm, tsp, tmp)
                    if true_min is not None:
                        assert bound <= true_min


def test_spin_op_term_set_identical_from_zero():
    # the zero-binomial guard is authoritative: starting the sigma loop at 0
    # instead of the case bound yields the identical nonzero term set
    for ts, tm, tsp, tmp in [(4, 2, 2, 0), (3, -1, 3, 1), (4, 4, 2, -2), (2, 0, 4, 0)]:
        terms = decohere_spin_op(
            HalfInt(ts), HalfInt(tm), HalfInt(tsp), HalfInt(tmp), 0.7, 0.4
        )
        lo = min_output_spin(HalfInt(ts), HalfInt(tm), HalfInt(tsp), HalfInt(tmp)).twice
        assert all(t.ket.s.twice >= lo for t in terms)
        got = {(t.ket, t.bra): t.value for t in terms}
        # brute scan from sigma = 0
        brute = {}
        n_up, n_dn = (ts + tm) // 2, (ts - tm) // 2
        np_up, np_dn = (tsp + tmp) // 2, (tsp - tmp) // 2
        for tsig in range(0, ts + 1):
            for tmu in range(-tsig, tsig + 1, 2):
                k_up, k_dn = (tsig + tmu) // 2, (tsig - tmu) // 2
                kp_up = k_up + (np_up - n_up)
                kp_dn = k_dn + (np_dn - n_dn)
                w2 = (
                    binom_int(n_up, k_up)
                    * binom_int(np_up, kp_up)
                    * binom_int(n_dn, k_dn)
                    * binom_int(np_dn, kp_dn)
                )
                if w2 == 0:
                    continue
                w = (
                    math.sqrt(w2)
                    * 0.7 ** (0.5 * (k_up + kp_up))
                    * 0.4 ** (0.5 * (k_dn + kp_dn))
                    * 0.3 ** (n_up - k_up)
                    * 0.6 ** (n_dn - k_dn)
                )
                ket = SpinLabel(HalfInt(k_up + k_dn), HalfInt(k_up - k_dn))
                bra = SpinLabel(HalfInt(kp_up + kp_dn), HalfInt(kp_up - kp_dn))
                brute[(ket, bra)] = w
        assert set(got) == set(brute)
        for key in got:
            assert got[key] == pytest.approx(brute[key], rel=1e-12)


# ----------------------------------------------------------- decohere_spin_op


def test_spin_op_lossless_is_identity_channel():
    # eta = 1 transmits everything: |s m><s' m'| survives unchanged as a
    # single unit-weight term, coherences included
    for (ts, tm, tsp, tmp) in [(3, 1, 3, 1), (3, 1, 3, -1), (4, 2, 2, 0)]:
        terms = decohere_spin_op(HalfInt(ts), HalfInt(tm), HalfInt(tsp), HalfInt(tmp), 1.0, 1.0)
        assert len(terms) == 1
        assert terms[0].ket == SpinLabel(HalfInt(ts), HalfInt(tm))
        assert terms[0].bra == SpinLabel(HalfInt(tsp), HalfInt(tmp))
        assert terms[0].value == pytest.approx(1.0)


def test_spin_op_single_photon():
    eta = 0.35
    terms = decohere_spin_op(HalfInt(1), HalfInt(1), HalfInt(1), HalfInt(1), eta, eta)
    weights = {(t.ket.s.twice, t.ket.m.twice): t.value for t in terms}
    assert weights == pytest.approx({(1, 1): eta, (0, 0): 1 - eta})


def test_spin_op_trace_preservation():
    for ts in range(0, 7):
        for tm in range(-ts, ts + 1, 2):
            for eta1, eta2 in ((1.0, 1.0), (0.9, 0.9), (0.55, 0.85), (0.0, 0.7)):
                terms = decohere_spin_op(HalfInt(ts), HalfInt(tm), HalfInt(ts), HalfInt(tm), eta1, eta2)
                trace = sum(t.value for t in terms if t.ket == t.bra)
                assert trace == pytest.approx(1.0, abs=1e-12)


def test_spin_op_factorizes_into_single_mode_channels():
    # tensor product of the two per-mode ladders, relabeled by (sigma, mu)
    for ts, tm, tsp, tmp in [(2, 0, 2, 2), (3, 1, 1, -1), (4, -2, 4, 0), (4, 4, 4, 4)]:
        eta1, eta2 = 0.8, 0.45
        n_up, n_dn = (ts + tm) // 2, (ts - tm) // 2
        np_up, np_dn = (tsp + tmp) // 2, (tsp - tmp) // 2
        combined = {}
        for t1 in decohere_single(n_up, np_up, eta1):
            for t2 in decohere_single(n_dn, np_dn, eta2):
                ket = SpinLabel(HalfInt(t1.ket + t2.ket), HalfInt(t1.ket - t2.ket))
                bra = SpinLabel(HalfInt(t1.bra + t2.bra), HalfInt(t1.bra - t2.bra))
                combined[(ket, bra)] = t1.value * t2.value
        direct = {
            (t.ket, t.bra): t.value
            for t in decohere_spin_op(HalfInt(ts), HalfInt(tm), HalfInt(tsp), HalfInt(tmp), eta1, eta2)
        }
        assert set(direct) == set(combined)
        for key in direct:
            assert direct[key] == pytest.approx(combined[key], rel=1e-12)


def test_spin_op_diagonal_marginals_factorize():
    # summing diagonal weights at fixed sigma over mu reproduces the product
    # of the two single-mode loss marginals with matching total count
    ts, tm = 4, 2
    eta1, eta2 = 0.7, 0.4
    n_up, n_dn = (ts + tm) // 2, (ts - tm) // 2
    marg1 = decohere_fock(n_up, eta1)
    marg2 = decohere_fock(n_dn, eta2)
    terms = decohere_spin_op(HalfInt(ts), HalfInt(tm), HalfInt(ts), HalfInt(tm), eta1, eta2)
    by_sigma = {}
    for t in terms:
        if t.ket == t.bra:
            by_sigma.setdefault(t.ket.s.twice, 0.0)
            by_sigma[t.ket.s.twice] += t.value
    for tsig, tot in by_sigma.items():
        want = sum(
            marg1[k1] * marg2[k2]
            for k1 in marg1
            for k2 in marg2
            if k1 + k2 == tsig
        )
        assert tot == pytest.approx(want, rel=1e-12)


def test_spin_op_complete_positivity_proxy():
    # decohered operators assembled from pure two-mode states stay positive
    rng = np.random.default_rng(7)
    for trial in range(4):
        # random pure state on occupations (n1, n2) with n1+n2 <= 4
        kets = [(n1, n2) for n1 in range(5) for n2 in range(5 - n1)]
        amps = rng.normal(size=len(kets)) + 1j * rng.normal(size=len(kets))
        amps /= np.linalg.norm(amps)
        eta1, eta2 = 0.65, 0.9
        index = {k: i for i, k in enumerate(kets)}
        rho = np.zeros((len(kets), len(kets)), dtype=complex)
        for (i, (na, nb)), (j, (nc, nd)) in itertools.product(enumerate(kets), repeat=2):
            s_k = HalfInt(na + nb)
            m_k = HalfInt(na - nb)
            s_b = HalfInt(nc + nd)
            m_b = HalfInt(nc - nd)
            for t in decohere_spin_op(s_k, m_k, s_b, m_b, eta1, eta2):
                k_up = (t.ket.s.twice + t.ket.m.twice) // 2
                k_dn = (t.ket.s.twice - t.ket.m.twice) // 2
                b_up = (t.bra.s.twice + t.bra.m.twice) // 2
                b_dn = (t.bra.s.twice - t.bra.m.twice) // 2
                rho[index[(k_up, k_dn)], index[(b_up, b_dn)]] += (
                    amps[i] * np.conj(amps[j]) * t.value
                )
        eigs = np.linalg.eigvalsh(rho)
        assert eigs.min() > -1e-10
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
