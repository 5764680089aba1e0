import math

import numpy as np
import pytest

from conftest import make_kg, make_stats
from ris_outage import (
    AsymptoteOutOfRegime,
    DegenerateParameters,
    DomainError,
    FloorUndefined,
    HardwareProfile,
    OutageScenario,
    cdf_A,
    cdf_Ae2e,
    diversity_order,
    from_nakagami,
    from_rice,
    max_threshold,
    moment_match,
    op_asymptotic,
    op_exact,
    op_floor,
)

RICE_5DB = 10.0 ** 0.5


def kg_reference(n_elements=16):
    return moment_match(from_nakagami(1.0), from_rice(RICE_5DB, 20), n_elements)


class TestOpExact:
    def test_ideal_aligned_is_cdf_identity(self):
        p = kg_reference(4)
        for ratio_db in (-5.0, 0.0, 10.0):
            gamma = 10.0 ** (ratio_db / 10.0)
            sc = OutageScenario(kg=p, hw=HardwareProfile(), gamma=gamma, gamma_th=1.0)
            assert op_exact(sc) == cdf_A(p, math.sqrt(1.0 / gamma))

    def test_ideal_misaligned_is_cdf_identity(self):
        p = kg_reference(4)
        s = make_stats(0.6, 2.5)
        sc = OutageScenario(kg=p, hw=HardwareProfile(), gamma=4.0, gamma_th=1.0, mis=s)
        assert op_exact(sc) == cdf_Ae2e(p, s, 0.5)

    def test_threshold_ceiling_returns_one(self):
        p = kg_reference(4)
        hw = HardwareProfile(0.3, 0.3)  # ceiling at 1/0.18 = 5.5556
        for gamma in (0.1, 10.0, 1e8):
            sc = OutageScenario(kg=p, hw=hw, gamma=gamma, gamma_th=6.0)
            assert op_exact(sc) == 1.0

    def test_effective_threshold_reduction(self):
        # impaired OP at gamma_th equals ideal OP at gamma_th_eff
        p = kg_reference(4)
        hw = HardwareProfile(0.2, 0.15)
        gamma_th = 2.0
        eff = gamma_th / (1.0 - hw.kappa_sq_sum * gamma_th)
        s1 = OutageScenario(kg=p, hw=hw, gamma=10.0, gamma_th=gamma_th)
        s2 = OutageScenario(kg=p, hw=HardwareProfile(), gamma=10.0, gamma_th=eff)
        assert op_exact(s1) == op_exact(s2)

    def test_monotone_in_gamma(self):
        p = kg_reference(4)
        s = make_stats(0.6, 2.5)
        for mis in (None, s):
            gammas = np.logspace(-2, 5, 1000)
            ops = [
                op_exact(OutageScenario(kg=p, hw=HardwareProfile(0.1, 0.1),
                                        gamma=float(g), gamma_th=1.0, mis=mis))
                for g in gammas
            ]
            assert all(b <= a + 1e-9 for a, b in zip(ops, ops[1:]))

    def test_monotone_in_threshold(self):
        p = kg_reference(4)
        ths = np.linspace(0.05, 8.0, 1000)
        ops = [
            op_exact(OutageScenario(kg=p, hw=HardwareProfile(0.25, 0.25),
                                    gamma=5.0, gamma_th=float(t)))
            for t in ths
        ]
        assert all(b >= a - 1e-9 for a, b in zip(ops, ops[1:]))

    def test_misalignment_degrades(self):
        p = kg_reference(4)
        s = make_stats(0.6, 2.5)
        for gamma in np.logspace(-1, 4, 40):
            base = OutageScenario(kg=p, hw=HardwareProfile(), gamma=float(gamma), gamma_th=1.0)
            mis = OutageScenario(kg=p, hw=HardwareProfile(), gamma=float(gamma),
                                 gamma_th=1.0, mis=s)
            assert op_exact(mis) >= op_exact(base) - 1e-12

    def test_hardware_degrades(self):
        p = kg_reference(4)
        for gamma in np.logspace(-1, 4, 40):
            base = OutageScenario(kg=p, hw=HardwareProfile(), gamma=float(gamma), gamma_th=0.9)
            hw = OutageScenario(kg=p, hw=HardwareProfile(0.3, 0.3),
                                gamma=float(gamma), gamma_th=0.9)
            assert op_exact(hw) >= op_exact(base) - 1e-12

    def test_continuity_at_ceiling(self):
        p = kg_reference(4)
        hw = HardwareProfile(0.3, 0.3)
        ceiling = max_threshold(hw)
        ths = ceiling * (1.0 - np.logspace(-6, -1, 12)[::-1])
        ops = [
            op_exact(OutageScenario(kg=p, hw=hw, gamma=3.0, gamma_th=float(t)))
            for t in ths
        ]
        assert all(b >= a - 1e-12 for a, b in zip(ops, ops[1:]))
        assert ops[-1] > 0.999999


class TestOpAsymptotic:
    def test_tracks_exact_aligned_high_snr(self):
        # Rayleigh-like pair, 4 elements, 40 dB above threshold
        p = moment_match(from_nakagami(1.5), from_nakagami(0.8), 4)
        sc = OutageScenario(kg=p, hw=HardwareProfile(), gamma=1e4, gamma_th=1.0)
        assert op_asymptotic(sc) / op_exact(sc) == pytest.approx(1.0, abs=0.05)

    def test_tracks_exact_misaligned_high_snr(self):
        p = kg_reference(16)
        s = make_stats(0.55, 3.43)
        sc = OutageScenario(kg=p, hw=HardwareProfile(), gamma=1e8, gamma_th=1.0, mis=s)
        assert op_asymptotic(sc) / op_exact(sc) == pytest.approx(1.0, abs=1e-3)

    def test_kappa_zero_reduces_to_ideal_form(self):
        p = kg_reference(4)
        s1 = OutageScenario(kg=p, hw=HardwareProfile(0.0, 0.0), gamma=100.0, gamma_th=1.0)
        s2 = OutageScenario(kg=p, hw=HardwareProfile(), gamma=100.0, gamma_th=1.0)
        assert op_asymptotic(s1) == op_asymptotic(s2)

    def test_ceiling_branch(self):
        p = kg_reference(4)
        sc = OutageScenario(kg=p, hw=HardwareProfile(0.3, 0.3), gamma=10.0, gamma_th=6.0)
        assert op_asymptotic(sc) == 1.0

    def test_degenerate_raises(self):
        p = make_kg(3.0, 1.0)  # integer separation
        sc = OutageScenario(kg=p, hw=HardwareProfile(), gamma=100.0, gamma_th=1.0)
        with pytest.raises(DegenerateParameters):
            op_asymptotic(sc)

    @pytest.mark.parametrize("n,offset", [(0, -5e-4), (0, 5e-4), (1, -5e-4), (1, 5e-4)])
    def test_pole_lattice_raises(self, n, offset):
        # k_a - m_a is safely non-integer; zeta/2 sits within the band of m_a + n
        p = make_kg(5.67, 2.3)
        s = make_stats(0.6, 2.0 * (p.m_a + n + offset))
        sc = OutageScenario(kg=p, hw=HardwareProfile(), gamma=1e8, gamma_th=1.0, mis=s)
        with pytest.raises(DegenerateParameters):
            op_asymptotic(sc)

    @pytest.mark.parametrize(
        "hops,n,frac",
        [
            # bulk of aligned_elements at -5 dB: the truncated sum is negative
            ((from_nakagami(1.0), from_rice(RICE_5DB, 20)), 4, None),
            # deep tail (OP ~ 2e-19) with xi x ~ 3.1: still outside the regime
            ((from_nakagami(1.152), from_nakagami(2.034)), 16, 0.15),
        ],
    )
    def test_out_of_regime_raises(self, hops, n, frac):
        p = moment_match(*hops, n)
        gamma = 10.0 ** -0.5 if frac is None else 1.0 / (frac**2 * p.omega_a)
        sc = OutageScenario(kg=p, hw=HardwareProfile(), gamma=gamma, gamma_th=1.0)
        assert 0.0 < op_exact(sc) < 1.0
        with pytest.raises(AsymptoteOutOfRegime):
            op_asymptotic(sc)


class TestOpFloor:
    def test_hardware_independent(self):
        p = kg_reference(16)
        s = make_stats(0.55, 3.43)
        f0 = op_floor(OutageScenario(kg=p, hw=HardwareProfile(0.0, 0.0),
                                     gamma=10.0, gamma_th=1.0, mis=s))
        f3 = op_floor(OutageScenario(kg=p, hw=HardwareProfile(0.3, 0.3),
                                     gamma=10.0, gamma_th=1.0, mis=s))
        assert f0 == f3  # bit identical

    def test_ceiling_branch(self):
        p = kg_reference(16)
        s = make_stats(0.55, 3.43)
        sc = OutageScenario(kg=p, hw=HardwareProfile(0.3, 0.3),
                            gamma=10.0, gamma_th=6.0, mis=s)
        assert op_floor(sc) == 1.0

    def test_undefined_when_zeta_large(self):
        p = kg_reference(16)
        s = make_stats(0.55, 2.0 * min(p.k_a, p.m_a) + 0.1)
        sc = OutageScenario(kg=p, hw=HardwareProfile(), gamma=10.0, gamma_th=1.0, mis=s)
        with pytest.raises(FloorUndefined):
            op_floor(sc)

    @pytest.mark.parametrize("zeta,coefficient", [(0.7, 2.27164), (1.9, 96.6489)])
    def test_undefined_when_coefficient_not_a_probability(self, zeta, coefficient):
        # Nakagami(1) x Nakagami(2), N = 1: zeta < 2 min(k_a, m_a) = 2, yet
        # the x^zeta coefficient exceeds 1
        p = moment_match(from_nakagami(1.0), from_nakagami(2.0), 1)
        sc = OutageScenario(kg=p, hw=HardwareProfile(), gamma=10.0, gamma_th=1.0,
                            mis=make_stats(0.6, zeta))
        with pytest.raises(FloorUndefined, match="not a probability") as info:
            op_floor(sc)
        assert f"coefficient {coefficient:g}" in str(info.value)

    def test_requires_misalignment(self):
        p = kg_reference(4)
        sc = OutageScenario(kg=p, hw=HardwareProfile(), gamma=10.0, gamma_th=1.0)
        with pytest.raises(DomainError):
            op_floor(sc)

    def test_floor_is_high_snr_prefactor(self):
        # op_exact * (gamma / gamma_th_eff)^(zeta/2) -> op_floor;
        # the exact outage keeps decaying (the gain is positive a.s.),
        # with the floor constant as the leading prefactor
        p = kg_reference(16)
        s = make_stats(0.55, 3.43)
        gamma = 1e10  # 100 dB above the unit threshold
        sc = OutageScenario(kg=p, hw=HardwareProfile(), gamma=gamma, gamma_th=1.0, mis=s)
        scaled = op_exact(sc) * gamma ** (s.zeta / 2.0)
        assert scaled == pytest.approx(op_floor(sc), rel=5e-3)


class TestMaxThreshold:
    def test_values(self):
        assert max_threshold(HardwareProfile(0.3, 0.3)) == pytest.approx(1.0 / 0.18, rel=1e-12)
        assert max_threshold(HardwareProfile(0.07, 0.07)) == pytest.approx(1.0 / 0.0098, rel=1e-12)
        assert max_threshold(HardwareProfile()) == math.inf

    def test_profile_validation(self):
        with pytest.raises(DomainError):
            HardwareProfile(kappa_s=-0.1)
        with pytest.raises(DomainError):
            HardwareProfile(kappa_d=1.0)


class TestDiversityOrder:
    def test_closed_form_is_max(self):
        rep = diversity_order(make_kg(3.2, 1.4))
        assert rep.closed_form == 3.2
        assert rep.empirical_slope is None

    def test_double_rayleigh_slope(self):
        d = from_nakagami(1.0)
        p = moment_match(d, d, 1)
        rep = diversity_order(p, empirical=True)
        assert rep.closed_form == pytest.approx(1.0, abs=1e-9)
        # slope of 1 - 2x K_1(2x) ~ x^2 log(1/x): near 1 with log corrections
        assert rep.empirical_slope == pytest.approx(1.0, abs=0.1)

    def test_empirical_slope_tracks_min_shape(self):
        # the slowest-decaying high-SNR term has exponent min(k_a, m_a);
        # the measured slope follows it, in tension with the closed form
        rep = diversity_order(make_kg(3.2, 1.4), empirical=True)
        assert rep.closed_form == 3.2
        assert rep.empirical_slope == pytest.approx(1.4, abs=0.1)
