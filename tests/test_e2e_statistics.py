import math
import sys
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import make_kg, make_stats, mp_cdf_A, mp_cdf_Ae2e, mp_moment_match, mp_pdf_A
from ris_outage import (
    DomainError,
    HardwareProfile,
    KGParams,
    MCConfig,
    MomentMatchFailure,
    NoConvergence,
    cdf_A,
    cdf_Ae2e,
    cdf_Ae2e_quadrature,
    from_nakagami,
    from_rice,
    moment_match,
    pdf_A,
    pdf_Ae2e,
    product_moment,
    sample_envelope,
    simulate_cdf,
    simulate_curve,
    sum_moments,
)
from ris_outage import cascade
from ris_outage.cascade import _cdf_A_quadrature

RICE_5DB = 10.0 ** 0.5
# K-distribution CDF anchor: 1 - 2 K_1(2), 50-digit reference
ONE_MINUS_2K1_2 = 0.72026823636695514543080238592917795222553083031697
FOUR_K0_2 = 0.45557549099813374261087829972992733199330649755524


# hop pairs over which the moment match is checked against extended precision
MATCH_PAIRS = {
    "nakagami1-rice5db": (from_nakagami(1.0), from_rice(RICE_5DB, 20)),
    "nakagami0.8-nakagami3": (from_nakagami(0.8), from_nakagami(3.0)),
    "nakagami2.5-riceK2": (from_nakagami(2.5), from_rice(2.0, 20)),
    "riceK10-riceK0.5": (from_rice(10.0, 20), from_rice(0.5, 20)),
}


def kg_double_rayleigh() -> KGParams:
    d = from_nakagami(1.0)
    return moment_match(d, d, 1)


def kg_reference(n_elements=16) -> KGParams:
    return moment_match(from_nakagami(1.0), from_rice(RICE_5DB, 20), n_elements)


class TestSumMoments:
    def test_single_element_equals_product_moment(self):
        d1, d2 = from_nakagami(2.0), from_rice(1.0, 20)
        for order in range(7):
            assert sum_moments(d1, d2, 1, order) == pytest.approx(
                product_moment(d1, d2, order), rel=1e-14
            )

    def test_two_element_second_moment_hand_expansion(self):
        # E[(chi1+chi2)^2] = 2 mu(2) + 2 mu(1)^2 = 2 + pi^2/8 for double Rayleigh
        d = from_nakagami(1.0)
        assert sum_moments(d, d, 2, 2) == pytest.approx(
            2.0 + math.pi**2 / 8.0, rel=1e-12
        )

    def test_two_element_second_moment_against_mc(self):
        d = from_nakagami(1.0)
        rng = np.random.default_rng(8)
        n = 10_000_000
        chi = (
            sample_envelope(d, rng, size=(n, 2)) * sample_envelope(d, rng, size=(n, 2))
        ).sum(axis=1)
        target = sum_moments(d, d, 2, 2)
        stderr = np.std(chi**2) / math.sqrt(n)
        assert abs(np.mean(chi**2) - target) <= 4.0 * stderr

    def test_order_zero(self):
        # exactly 1 in exact arithmetic; float summation of the mixture
        # weights leaves ~1e-15 of roundoff
        assert sum_moments(from_nakagami(1.0), from_rice(2.0, 20), 7, 0) == pytest.approx(
            1.0, rel=1e-12
        )


class TestMomentMatch:
    def test_double_rayleigh_forced_reduction(self):
        p = kg_double_rayleigh()
        assert p.k_a == pytest.approx(1.0, abs=1e-9)
        assert p.m_a == pytest.approx(1.0, abs=1e-9)
        assert p.xi == pytest.approx(1.0, abs=1e-9)
        assert p.moments2_4_6 == pytest.approx((1.0, 4.0, 36.0), rel=1e-12)

    @pytest.mark.parametrize("n", [1, 4, 16, 64, 256, 1024, 4096])
    @pytest.mark.parametrize("pair", sorted(MATCH_PAIRS))
    def test_against_extended_precision(self, pair, n):
        # the cumulants kappa_j = N c_j carry no cancellation that grows
        # with N: measured worst 2.4e-13 at every N
        d1, d2 = MATCH_PAIRS[pair]
        p = moment_match(d1, d2, n)
        k_ref, m_ref, xi_ref, om_ref = mp_moment_match(d1, d2, n)
        rel = 1e-12
        assert p.k_a == pytest.approx(k_ref, rel=rel)
        assert p.m_a == pytest.approx(m_ref, rel=rel)
        assert p.xi == pytest.approx(xi_ref, rel=rel)
        assert p.omega_a == pytest.approx(om_ref, rel=rel)

    @pytest.mark.parametrize("pair", sorted(MATCH_PAIRS))
    def test_element_ceiling(self, pair):
        # past 4096 elements the closed forms' Bessel recurrence costs too
        # much a point: refused at once, by a message that names the ceiling
        with pytest.raises(DomainError, match="exceeds 4096"):
            moment_match(*MATCH_PAIRS[pair], 4097)
        assert moment_match(*MATCH_PAIRS[pair], 4096).n_elements == 4096

    def test_scale_covariance(self):
        # scaling both mean powers by s^2 scales omega_a by s^2, shapes invariant
        s2 = 2.7
        p1 = moment_match(from_nakagami(2.0, 1.0), from_nakagami(1.5, 1.0), 4)
        p2 = moment_match(from_nakagami(2.0, s2), from_nakagami(1.5, s2), 4)
        assert p2.k_a == pytest.approx(p1.k_a, rel=1e-9)
        assert p2.m_a == pytest.approx(p1.m_a, rel=1e-9)
        assert p2.omega_a == pytest.approx(p1.omega_a * s2 * s2, rel=1e-9)

    def test_failure_on_unmatchable_moments(self):
        # near-symmetric Nakagami sums have a negative discriminant: the
        # generalized-K family cannot reproduce their 2/4/6 moments
        with pytest.raises(MomentMatchFailure):
            moment_match(from_nakagami(1.05), from_nakagami(0.95), 4)

    @pytest.mark.parametrize("n", [1, 4, 64])
    def test_failure_on_nonpositive_shape_root(self, n):
        # a near-deterministic Nakagami hop times a strong Rice hop: the
        # discriminant is positive, but a root 1/k_a or 1/m_a is not
        with pytest.raises(MomentMatchFailure, match="non-positive shape root"):
            moment_match(from_nakagami(50.0), from_rice(10.0), n)

    @pytest.mark.parametrize("m", [1.0, 2.0, 2.5, 5.0])
    def test_identical_nakagami_single_element(self, m):
        # N = 1 with identical hops: the generalized-K law is exact with
        # k_a = m_a = m, a double root that rounding may push below zero
        d = from_nakagami(m)
        p = moment_match(d, d, 1)
        assert abs(p.k_a - m) <= 1e-9 * m and abs(p.m_a - m) <= 1e-9 * m
        grid = np.array([0.5, 0.8, 1.0, 1.3]) * math.sqrt(p.omega_a)
        estimates = simulate_cdf(d, d, 1, None, grid, MCConfig(200_000, seed=5))
        for x, p_hat, stderr in estimates:
            assert 0.0 < p_hat < 1.0
            assert abs(cdf_A(p, x) - p_hat) <= 4.0 * stderr

    @pytest.mark.parametrize("m", [8.0, 12.0, 20.0, 40.0])
    def test_identical_nakagami_single_element_large_m(self, m):
        # the double root's rounding grows with m, to disc = +-2.4e-11 p^2
        # at m = 40, inside the 1e-9 p^2 band; a root moves by sqrt(disc)/p
        d = from_nakagami(m)
        p = moment_match(d, d, 1)
        assert p.k_a == pytest.approx(m, rel=1e-4) and p.m_a == pytest.approx(m, rel=1e-4)

    @pytest.mark.parametrize("m", [0.5, 1.0, 8.0, 40.0])
    def test_identical_nakagami_two_elements_refused(self, m):
        # at N = 2 the discriminant is a true negative, at most -2.9e-5 p^2
        d = from_nakagami(m)
        with pytest.raises(MomentMatchFailure, match="negative discriminant"):
            moment_match(d, d, 2)

    def test_params_validation(self):
        with pytest.raises(Exception):
            KGParams(k_a=2.0, m_a=1.0, xi=5.0, omega_a=1.0,
                     n_elements=1, moments2_4_6=(1.0, 4.0, 36.0))


class TestPdfA:
    def test_double_rayleigh_value(self):
        p = kg_double_rayleigh()
        assert float(pdf_A(p, 1.0)) == pytest.approx(FOUR_K0_2, rel=1e-10)

    def test_normalization(self):
        for p in (kg_double_rayleigh(), kg_reference(4)):
            hi = 40.0 * math.sqrt(p.omega_a)
            val, _ = quad(lambda t: float(pdf_A(p, t)), 1e-12, hi, limit=400)
            assert val == pytest.approx(1.0, abs=1e-8)

    def test_second_moment_is_omega(self):
        p = kg_reference(4)
        hi = 40.0 * math.sqrt(p.omega_a)
        val, _ = quad(lambda t: t * t * float(pdf_A(p, t)), 1e-12, hi, limit=400)
        assert val == pytest.approx(p.omega_a, rel=1e-6)

    def test_extreme_shape_fallback(self):
        # N=16 with a strong line-of-sight hop pushes k_a - m_a past 140;
        # the density must agree with finite differences of the
        # quadrature CDF
        p = moment_match(from_nakagami(5.0), from_rice(RICE_5DB, 20), 16)
        assert p.k_a > 100.0
        x = math.sqrt(p.omega_a)
        h = 1e-4 * x
        deriv = (_cdf_A_quadrature(p, x + h) - _cdf_A_quadrature(p, x - h)) / (2 * h)
        assert float(pdf_A(p, x)) == pytest.approx(deriv, rel=1e-5)

    @pytest.mark.parametrize(
        "k_a,m_a,y",
        [
            # scaled Bessel K_(k_a - m_a)(y) overflows: recurrence route
            (60.6, 0.6, 1e-5),
            (50.3, 0.3, 1e-8),
            (100.7, 2.2, 1e-2),
            # order 50 at y = 60: finite, Bessel route
            (50.5, 0.5, 60.0),
        ],
    )
    def test_large_order_against_mp_reference(self, k_a, m_a, y):
        p = make_kg(k_a, m_a)
        x = y / (2.0 * p.xi)
        ref = float(mp_pdf_A(k_a, m_a, p.xi, x))
        assert float(pdf_A(p, x)) == pytest.approx(ref, rel=1e-11, abs=0.0)

    @pytest.mark.parametrize("y", [1e-30, 1e-100, 1e-200])
    @pytest.mark.parametrize("k_a,m_a", [(60.6, 0.6), (100.7, 2.2), (8.3, 0.55)])
    def test_deep_tail_against_mp_reference(self, k_a, m_a, y):
        # y = 2 xi x far below the overflow of the scaled Bessel function,
        # where the density comes from the Bessel recurrence
        p = make_kg(k_a, m_a)
        x = y / (2.0 * p.xi)
        ref = mp_pdf_A(k_a, m_a, p.xi, x)
        if ref < sys.float_info.min:  # the density underflows a float
            assert float(pdf_A(p, x)) <= sys.float_info.min
        else:
            assert float(pdf_A(p, x)) == pytest.approx(float(ref), rel=1e-11, abs=0.0)

    @pytest.mark.parametrize("k_a,m_a", [(171.0, 25.9), (172.4, 30.3), (250.7, 40.1)])
    def test_shapes_past_float_gamma(self, k_a, m_a):
        # Gamma(k_a) overflows a float from k_a = 171.7 on; the
        # normalisation is assembled from log-gammas
        p = make_kg(k_a, m_a)
        for x in (0.8, 1.0, 1.1):
            ref_pdf = float(mp_pdf_A(k_a, m_a, p.xi, x))
            ref_cdf = float(mp_cdf_A(k_a, m_a, p.xi, x))
            assert float(pdf_A(p, x)) == pytest.approx(ref_pdf, rel=1e-11), x
            assert cdf_A(p, x) == pytest.approx(ref_cdf, rel=1e-11), x

    def test_matches_mc_histogram(self):
        d1, d2 = from_nakagami(1.0), from_rice(RICE_5DB, 20)
        p = moment_match(d1, d2, 16)
        rng = np.random.default_rng(12)
        n = 2_000_000
        a = (
            sample_envelope(d1, rng, size=(n, 16)) * sample_envelope(d2, rng, size=(n, 16))
        ).sum(axis=1)
        mean = math.sqrt(p.omega_a)
        for x0 in (0.75 * mean, mean, 1.3 * mean):
            width = 0.02 * mean
            p_hat = np.mean(np.abs(a - x0) <= width / 2.0)
            stderr = math.sqrt(p_hat * (1.0 - p_hat) / n) / width
            # moment-matched surrogate: allow 1% model slack on top of noise
            dens = float(pdf_A(p, x0))
            assert abs(p_hat / width - dens) <= 3.0 * stderr + 0.01 * dens


class TestCdfA:
    def test_endpoints(self):
        p = kg_reference(4)
        assert cdf_A(p, 0.0) == 0.0
        assert cdf_A(p, 1e3 * math.sqrt(p.omega_a)) == 1.0

    def test_degenerate_order_anchor(self):
        # k_a = m_a = 1: quadrature path; closed K-distribution CDF 1 - 2x K_1(2x)
        p = kg_double_rayleigh()
        assert cdf_A(p, 1.0) == pytest.approx(ONE_MINUS_2K1_2, rel=1e-9)

    def test_series_equals_quadrature_randomized(self):
        rng = np.random.default_rng(77)
        checked = 0
        while checked < 10:
            m = rng.uniform(0.5, 5.0)
            k_db = rng.uniform(0.0, 10.0)
            n = int(rng.choice([1, 2, 4, 16]))
            p = moment_match(from_nakagami(m), from_rice(10 ** (k_db / 10.0), 20), n)
            if abs((p.k_a - p.m_a) - round(p.k_a - p.m_a)) <= 1e-3:
                continue
            checked += 1
            for frac in (0.05, 0.2, 0.5, 1.0):
                x = frac * math.sqrt(p.omega_a)
                assert abs(cdf_A(p, x) - _cdf_A_quadrature(p, x)) < 1e-7

    def test_against_mp_reference(self):
        cases = [
            (kg_reference(16), (0.05, 0.5623, 2.0, 8.0)),
            (moment_match(from_nakagami(5.0), from_rice(RICE_5DB, 20), 16), (0.5623, 5.0)),
            (moment_match(from_nakagami(0.6), from_nakagami(2.2), 2), (0.1, 1.0, 3.0)),
        ]
        for p, xs in cases:
            for x in xs:
                ref = float(mp_cdf_A(p.k_a, p.m_a, p.xi, x))
                got = cdf_A(p, x)
                assert got == pytest.approx(ref, rel=1e-8, abs=0.0), (p.k_a, p.m_a, x)

    @pytest.mark.parametrize(
        "k_db,n,fractions",
        [(10.0, 16, (0.85, 0.95, 1.0, 1.05, 1.15)), (20.0, 1, (0.2, 0.5, 0.8, 1.0, 1.3)),
         (20.0, 8, (0.7, 0.85, 1.0, 1.1, 1.25))],
    )
    def test_strong_rice_hop_against_mc(self, k_db, n, fractions):
        # the closed form prices the Rice law that Monte Carlo draws, at
        # K-factors whose mixture needs 52 and 207 terms
        d1, d2 = from_nakagami(1.0), from_rice(10.0 ** (k_db / 10.0))
        p = moment_match(d1, d2, n)
        grid = np.array(fractions) * math.sqrt(p.omega_a)
        for x, p_hat, stderr in simulate_cdf(d1, d2, n, None, grid,
                                             MCConfig(2**20, seed=n, workers=2)):
            assert abs(cdf_A(p, x) - p_hat) <= 4.0 * stderr, x

    def test_large_array_against_mp_reference(self):
        # N = 1024: shapes past 800, far beyond the old conditioning limit
        p = kg_reference(1024)
        for frac in (0.97, 1.0):
            x = frac * math.sqrt(p.omega_a)
            ref = float(mp_cdf_A(p.k_a, p.m_a, p.xi, x))
            assert cdf_A(p, x) == pytest.approx(ref, rel=1e-10, abs=0.0), x

    @pytest.mark.parametrize(
        "p",
        [make_kg(0.6 + 3 + 2e-4, 0.6), make_kg(8.3, 0.55), kg_double_rayleigh()],
        ids=["integer-band", "k8.3-m0.55", "double-rayleigh"],
    )
    def test_quadrature_where_s_underflows(self, p):
        # below x ~ 1e-155 / xi, s = (xi x)^2 and eps = s / Q_k leave the
        # normal range; the rule carries them as logs
        for x in (1e-160, 1e-200):
            ref = float(mp_cdf_A(p.k_a, p.m_a, p.xi, x))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _cdf_A_quadrature(p, x)
            if ref >= 1e-300:
                assert got == pytest.approx(ref, rel=1e-12, abs=0.0), x
            else:  # subnormal or 0: no digits to check
                assert 0.0 <= got <= 2.3e-308, x

    @pytest.mark.parametrize("k", [0.5, 0.8, 0.95])
    def test_quadrature_where_s_over_v_underflows(self, k):
        # k_a = m_a < 1: the inner P(k_a, s/v) of the rule's nodes leaves
        # the normal range while (s/v)^k_a and the value do not
        p = make_kg(k, k)
        for x in (1e-160, 1e-200, 1e-250):
            ref = float(mp_cdf_A(p.k_a, p.m_a, p.xi, x))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = cdf_A(p, x)
            if ref >= 2.3e-308:  # a normal double
                assert got == pytest.approx(ref, rel=1e-12, abs=0.0), x
            else:  # subnormal or 0: no digits to check
                assert 0.0 <= got <= 2.3e-308, x

    def test_monotone(self):
        p = kg_reference(4)
        xs = np.linspace(0.0, 4.0 * math.sqrt(p.omega_a), 1000)
        vals = [cdf_A(p, float(x)) for x in xs]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
        assert 0.0 <= min(vals) and max(vals) <= 1.0

    def test_pdf_cdf_consistency(self):
        p = kg_reference(4)
        mean = math.sqrt(p.omega_a)
        for x in np.linspace(0.3 * mean, 2.0 * mean, 12):
            h = 1e-5 * mean
            deriv = (cdf_A(p, x + h) - cdf_A(p, x - h)) / (2.0 * h)
            assert deriv == pytest.approx(float(pdf_A(p, x)), rel=1e-5)


class TestCdfAe2e:
    def test_endpoints(self):
        p = kg_reference(16)
        s = make_stats(0.55, 3.43)
        assert cdf_Ae2e(p, s, 0.0) == 0.0
        assert cdf_Ae2e(p, s, 1e3 * math.sqrt(p.omega_a)) == pytest.approx(1.0, abs=1e-6)

    def test_series_equals_quadrature_randomized(self):
        rng = np.random.default_rng(88)
        checked = 0
        while checked < 8:
            m = rng.uniform(0.5, 5.0)
            k_db = rng.uniform(0.0, 10.0)
            n = int(rng.choice([1, 2, 4, 16]))
            p = moment_match(from_nakagami(m), from_rice(10 ** (k_db / 10.0), 20), n)
            s = make_stats(rng.uniform(0.1, 0.95), rng.uniform(0.4, 8.0))
            if abs((p.k_a - p.m_a) - round(p.k_a - p.m_a)) <= 1e-3:
                continue
            checked += 1
            for frac in (0.02, 0.1, 0.4, 1.0):
                x = frac * math.sqrt(p.omega_a)
                diff = abs(cdf_Ae2e(p, s, x) - cdf_Ae2e_quadrature(p, s, x))
                assert diff < 1e-6, (p.k_a, p.m_a, s.zeta, x)

    def test_series_beyond_two_m_a(self):
        # analytic continuation region: zeta above 2 min(k_a, m_a)
        p = moment_match(from_nakagami(1.3), from_nakagami(0.9), 2)
        s = make_stats(0.4, 2.0 * p.m_a + 1.7)
        for x in (0.1, 0.5, 1.5):
            diff = abs(cdf_Ae2e(p, s, x) - cdf_Ae2e_quadrature(p, s, x))
            assert diff < 1e-6

    def test_against_mp_reference(self):
        p = kg_reference(16)
        s = make_stats(0.5453, 3.4249)
        for x in (0.5623, 1.7783):
            ref = float(mp_cdf_Ae2e(p.k_a, p.m_a, p.xi, s.b_o, s.zeta, x))
            assert cdf_Ae2e(p, s, x) == pytest.approx(ref, rel=1e-7)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,  # not an oracle failure
        reason="the router keeps a series with cond 6.6e5 < _COND_LIMIT, "
        "~2e-10 off where the quadrature twin is right to ~1e-16",
    )
    def test_ill_conditioned_series_point_against_mp_reference(self):
        p = kg_reference(4)
        s = make_stats(0.55, 3.5)
        x = 0.5 * math.sqrt(p.omega_a)
        ref = float(mp_cdf_Ae2e(p.k_a, p.m_a, p.xi, s.b_o, s.zeta, x))
        assert cdf_Ae2e(p, s, x) == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_quadrature_concentration_limit(self):
        # zeta -> inf concentrates h_g at B_o, so F(x) -> F_A(x / B_o)
        p = kg_reference(4)
        s = make_stats(0.7, 1e4)
        x = 0.5 * math.sqrt(p.omega_a) * s.b_o
        assert cdf_Ae2e_quadrature(p, s, x) == pytest.approx(
            cdf_A(p, x / s.b_o), abs=1e-4
        )

    @pytest.mark.parametrize("zeta", [1e3, 1e4, 1e5])
    def test_quadrature_large_zeta_against_mp_reference(self, zeta):
        p = kg_reference(4)
        s = make_stats(0.7, zeta)
        for frac in (0.1, 0.5):
            x = frac * math.sqrt(p.omega_a) * s.b_o
            ref = float(mp_cdf_Ae2e(p.k_a, p.m_a, p.xi, s.b_o, s.zeta, x))
            assert cdf_Ae2e_quadrature(p, s, x) == pytest.approx(ref, rel=1e-9), frac

    def test_quadrature_approaches_concentration_limit_from_above(self):
        # h_g <= B_o, so F(x) >= F_A(x / B_o), with a gap that closes as
        # the loss concentrates at B_o
        p = kg_reference(4)
        for frac in (0.1, 0.5):
            x = frac * math.sqrt(p.omega_a) * 0.7
            limit = cdf_A(p, x / 0.7)
            gaps = [
                cdf_Ae2e_quadrature(p, make_stats(0.7, zeta), x) / limit - 1.0
                for zeta in (1e3, 1e4, 1e5)
            ]
            assert 0.0 < gaps[2] < gaps[1] < gaps[0], frac

    def test_monotone(self):
        p = kg_reference(4)
        s = make_stats(0.6, 2.3)
        xs = np.linspace(0.0, 2.5 * math.sqrt(p.omega_a), 400)
        vals = [cdf_Ae2e(p, s, float(x)) for x in xs]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_matches_mc(self):
        d1, d2 = from_nakagami(1.0), from_rice(RICE_5DB, 20)
        p = moment_match(d1, d2, 16)
        s = make_stats(0.55, 3.43)
        rng = np.random.default_rng(4)
        n = 2_000_000
        a = (
            sample_envelope(d1, rng, size=(n, 16)) * sample_envelope(d2, rng, size=(n, 16))
        ).sum(axis=1)
        u = 1.0 - rng.random(size=n)
        gains = a * s.b_o * u ** (1.0 / s.zeta)
        for q in (0.05, 0.25, 0.5, 0.9):
            x = float(np.quantile(gains, q))
            p_hat = np.mean(gains <= x)
            stderr = math.sqrt(p_hat * (1 - p_hat) / n)
            # surrogate model slack on top of the binomial noise
            assert abs(cdf_Ae2e(p, s, x) - p_hat) <= 4.0 * stderr + 5e-3

    @pytest.mark.parametrize("n,samples", [(1024, 16384), (4096, 4000)])
    def test_large_array_against_mc(self, n, samples):
        # one shared sample set prices F_A about the mean and F_A_e2e over
        # its body, in chunks of 32 and 8 snapshots
        d1, d2 = MATCH_PAIRS["nakagami1-rice5db"]
        p = moment_match(d1, d2, n)
        s = make_stats(0.55, 3.43)
        mean = math.sqrt(p.omega_a)
        cases = [(None, f * mean) for f in (0.98, 1.0, 1.02)]
        cases += [(s, f * mean) for f in (0.16, 0.38, 0.52)]
        points = [(mis, HardwareProfile(), 1.0, x * x) for mis, x in cases]
        estimates = simulate_curve(d1, d2, n, points, MCConfig(samples, seed=n, workers=1))
        for (mis, x), est in zip(cases, estimates):
            value = cdf_A(p, x) if mis is None else cdf_Ae2e(p, mis, x)
            assert abs(value - est.op_hat) <= 4.0 * est.stderr, (mis, x)


def _boundary_cases():
    """(k_a, m_a, zeta, z grid) on both sides of each router boundary; z is
    the series argument (xi x / B_o)^2 and zeta None the aligned CDF."""
    grid = (0.03, 0.5, 3.0, 12.0, 50.0)  # crosses the cond limit near z ~ 10
    m = 2.3
    for off in (5e-4, -5e-4, 2e-3, -2e-3):
        for zeta in (None, 3.1):
            yield pytest.param(m + 3 + off, m, zeta, grid, id=f"order-3{off:+g}-zeta{zeta}")
    for n in (0, 1):
        for off in (5e-4, -5e-4, 2e-3, -2e-3):
            zeta = 2.0 * (m + n + off)
            yield pytest.param(5.67, m, zeta, grid, id=f"pole-m+{n}{off:+g}")
    for zeta in (None, 3.1):  # large shapes: well conditioned past z = 400
        yield pytest.param(228.3, 64.1, zeta, (383.0, 399.0, 401.0, 417.0, 1000.0),
                           id=f"zlimit-zeta{zeta}")


class TestRouterBoundaries:
    @pytest.mark.parametrize("k_a,m_a,zeta,z_grid", list(_boundary_cases()))
    def test_cdf_matches_quadrature_across_boundary(self, k_a, m_a, zeta, z_grid):
        p = make_kg(k_a, m_a)
        s = None if zeta is None else make_stats(0.6, zeta)
        b_o = 1.0 if s is None else s.b_o
        vals = []
        for z in z_grid:
            x = math.sqrt(z) * b_o / p.xi
            if s is None:
                got, ref = cdf_A(p, x), _cdf_A_quadrature(p, x)
            else:
                got, ref = cdf_Ae2e(p, s, x), cdf_Ae2e_quadrature(p, s, x)
            assert math.isfinite(got) and 0.0 <= got <= 1.0
            assert got == pytest.approx(ref, rel=1e-6, abs=0.0), z
            vals.append(got)
        assert vals == sorted(vals)

    @pytest.mark.parametrize("zeta", [None, 3.1])
    def test_large_shapes_keep_the_series_past_z_400(self, zeta):
        # the route follows cond alone: no argument limit overrides it
        p = make_kg(228.3, 64.1)
        s = None if zeta is None else make_stats(0.6, zeta)
        b_o = 1.0 if s is None else s.b_o
        for z in (401.0, 417.0, 1000.0):
            x = math.sqrt(z) * b_o / p.xi
            assert cascade._cdf(p, s, x).series, z

    def test_twin_route_returns_the_twins_float(self):
        # k_a = m_a has no series, so the twin prices these deep-tail
        # points, and cdf_A / cdf_Ae2e hand back its float bit for bit
        p, s = make_kg(1.0, 1.0), make_stats(0.6, 2.3)
        f = cascade._cdf(p, None, 1e-140)
        assert not f.series and f.value == _cdf_A_quadrature(p, 1e-140)
        assert cdf_A(p, 1e-140) == _cdf_A_quadrature(p, 1e-140)
        f = cascade._cdf(p, s, 1e-60)
        assert not f.series and f.value == cdf_Ae2e_quadrature(p, s, 1e-60)
        assert cdf_Ae2e(p, s, 1e-60) == cdf_Ae2e_quadrature(p, s, 1e-60)

    @pytest.mark.parametrize("k_a,m_a", [(5.67, 2.3), (2.3 + 3.0 + 5e-4, 2.3), (228.3, 64.1)])
    @pytest.mark.parametrize("zeta", [None, 3.1])
    def test_record_invariants(self, k_a, m_a, zeta):
        # the series arm prices exp(log), the twin arm log(value); both
        # routes and both range bounds appear over the grid, and each twin
        # prices the bounds itself too
        p = make_kg(k_a, m_a)
        s = None if zeta is None else make_stats(0.6, zeta)
        b_o = 1.0 if s is None else s.b_o
        top = b_o * cascade._x_upper(p)
        assert cascade._cdf(p, s, 0.0) == (0.0, -math.inf, False)
        assert cascade._cdf(p, s, top) == (1.0, 0.0, False)
        for x, want in ((0.0, 0.0), (top, 1.0), (2.0 * top, 1.0)):
            got = _cdf_A_quadrature(p, x) if s is None else cdf_Ae2e_quadrature(p, s, x)
            assert got == want, x
        if s is not None:
            assert pdf_Ae2e(p, s, top) == pdf_Ae2e(p, s, 2.0 * top) == 0.0
        for z in (1e-6, 0.5, 12.0, 50.0, 1000.0):
            f = cascade._cdf(p, s, math.sqrt(z) * b_o / p.xi)
            if f.series:
                assert f.value == math.exp(f.log), z
            else:
                assert f.log == math.log(f.value), z
        with pytest.raises(DomainError):
            cascade._cdf(p, s, -1.0)
        with pytest.raises(DomainError):
            cascade._cdf(p, s, math.nan)

    @pytest.mark.parametrize("zeta", [None, 0.5, 3.1, 7.3])
    def test_skipped_sums_are_ones_the_router_rejects(self, monkeypatch, zeta):
        # every 1F2 partial sum starts at 1, so a sum in (0, 1] has
        # cond >= max(|T0|, |C_s u^(2s)|); _log_series skips the sums where
        # that bound reaches _COND_LIMIT, and the full sum has cond past it
        s = None if zeta is None else make_stats(0.6, zeta)
        b_o = 1.0 if s is None else s.b_o
        checked = skipped = 0
        for k, m in ((0.6, 0.35), (2.3 + 3.41, 2.3), (12.4, 3.7), (228.3, 64.1)):
            p = make_kg(k, m)
            if not cascade._series_defined(p, zeta):
                continue
            for z in np.geomspace(0.1, 3e3, 12):
                x = math.sqrt(z) * b_o / p.xi
                t0, branches = cascade._expansion_terms(p, x / b_o, zeta)
                bound = max([b[3] for b in branches] + ([] if t0 is None else [t0[1]]))
                gated = cascade._log_series(p, s, x) == (0.0, -math.inf, math.inf)
                with monkeypatch.context() as patch:
                    patch.setattr(cascade, "_COND_LIMIT", math.inf)  # sum everything
                    try:
                        sign, logmag, cond = cascade._log_series(p, s, x)
                    except NoConvergence:
                        continue
                if sign > 0.0 and logmag <= 0.0:
                    checked += 1
                    assert math.log(cond) >= bound - 1e-9, (k, m, z)
                    if gated:
                        skipped += 1
                        assert cond >= cascade._COND_LIMIT, (k, m, z)
        assert checked >= 10 and skipped >= 1


class TestPdfAe2e:
    def test_normalization(self):
        p = kg_reference(4)
        s = make_stats(0.6, 2.3)
        hi = 50.0 * math.sqrt(p.omega_a)
        val, _ = quad(lambda t: pdf_Ae2e(p, s, t), 1e-9, hi, limit=400)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_central_difference_consistency(self):
        p = kg_reference(4)
        s = make_stats(0.6, 2.3)
        mean = math.sqrt(p.omega_a) * s.b_o
        for x in np.linspace(0.2 * mean, 2.0 * mean, 20):
            h = 1e-5 * mean
            deriv = (cdf_Ae2e(p, s, x + h) - cdf_Ae2e(p, s, x - h)) / (2.0 * h)
            assert deriv == pytest.approx(pdf_Ae2e(p, s, float(x)), rel=1e-5)

    def test_deep_tail_power_law(self):
        # far below the knee of A, f(x) -> zeta x^(zeta-1) E[(B_o A)^-zeta]
        # (finite for zeta < 2 m_a), so two deep values differ by a pure
        # power of their abscissae; the low outer nodes overflow the
        # scaled Bessel function there
        p, s = make_kg(60.6, 0.6), make_stats(0.6, 0.5)
        deep, shallow = pdf_Ae2e(p, s, 1e-200), pdf_Ae2e(p, s, 1e-100)
        assert math.isfinite(deep)
        assert deep / shallow == pytest.approx(1e-100 ** (s.zeta - 1.0), rel=1e-12)


# --- the fixed Gauss-Legendre rules of the end-to-end twins ------------------

FIXED_RULE_ZETAS = (0.5, 1.5, 3.43, 14.5, 40.0)


def _fixed_rule_cases():
    """(law id, KGParams, zeta): N = 4 and 16 over FIXED_RULE_ZETAS, the
    k_a - m_a integer band over the same zetas, and zeta/2 = m_a on the
    pole lattice."""
    laws = (
        ("N4", kg_reference(4)),
        ("N16", kg_reference(16)),
        ("integer", make_kg(2.3 + 3.0 + 5e-4, 2.3)),
    )
    for name, p in laws:
        for zeta in FIXED_RULE_ZETAS:
            yield pytest.param(p, zeta, id=f"{name}-zeta{zeta:g}")
    for n in (4, 16):
        p = kg_reference(n)
        yield pytest.param(p, 2.0 * p.m_a, id=f"N{n}-pole")


def _x_at(p, s, level):
    """x where F_{A_e2e} is within a small factor of level: secant steps
    in (log x, log F) on the quadrature twin."""
    lx = [math.log(0.5 * s.b_o * math.sqrt(p.omega_a)), math.log(0.4 * s.b_o * math.sqrt(p.omega_a))]
    lf = [math.log(cdf_Ae2e_quadrature(p, s, math.exp(v))) for v in lx]
    for _ in range(6):
        slope = (lf[1] - lf[0]) / (lx[1] - lx[0])
        nxt = lx[1] + (math.log(level) - lf[1]) / slope
        lx = [lx[1], nxt]
        lf = [lf[1], math.log(cdf_Ae2e_quadrature(p, s, math.exp(nxt)))]
        if abs(lf[1] - math.log(level)) < 0.5:
            break
    return math.exp(lx[1])


FIXED_RULE_LEVELS = (1e-15, 1e-9, 1e-3, 0.5)


class TestFixedRules:
    @pytest.mark.parametrize(
        "p,zeta", [c for c in _fixed_rule_cases() if cascade._series_defined(*c.values)]
    )
    def test_quadrature_matches_series_in_tail(self, p, zeta):
        s = make_stats(0.6, zeta)
        checked = 0
        for level in FIXED_RULE_LEVELS[:-1]:
            x = _x_at(p, s, level)
            f = cascade._cdf(p, s, x)
            if not f.series:
                continue  # the router would not keep the series here
            checked += 1
            assert cdf_Ae2e_quadrature(p, s, x) == pytest.approx(
                f.value, rel=1e-8, abs=0.0
            ), level
        assert checked >= 2

    @pytest.mark.parametrize("p,zeta", list(_fixed_rule_cases()))
    def test_pdf_matches_central_difference(self, p, zeta):
        s = make_stats(0.6, zeta)
        for level in FIXED_RULE_LEVELS:
            x = _x_at(p, s, level)
            h = 1e-4
            deriv = (cdf_Ae2e(p, s, x * (1 + h)) - cdf_Ae2e(p, s, x * (1 - h))) / (2 * h * x)
            assert pdf_Ae2e(p, s, x) == pytest.approx(deriv, rel=1e-6, abs=0.0), level

    @pytest.mark.parametrize(
        "p,zeta",
        [c for c in _fixed_rule_cases()
         if c.id in ("integer-zeta0.5", "integer-zeta3.43", "integer-zeta40", "N4-pole")],
    )
    def test_quadrature_matches_defining_t_integral(self, p, zeta):
        # where no series exists: F = int_0^1 F_A(x / (B_o t^(1/zeta))) dt,
        # with t = (y/B_o)^zeta uniform, against the rule's
        # F_A(x/B_o) + (x/zeta) f(x)
        s = make_stats(0.6, zeta)
        for frac in (0.02, 0.1, 0.5, 1.0):
            x = frac * s.b_o * math.sqrt(p.omega_a)
            ref, _ = quad(
                lambda t: _cdf_A_quadrature(p, x / (s.b_o * t ** (1.0 / zeta))),
                0.0, 1.0, epsabs=0.0, epsrel=1e-12, limit=200,
            )
            assert cdf_Ae2e_quadrature(p, s, x) == pytest.approx(ref, rel=1e-9, abs=0.0), frac

    @pytest.mark.parametrize("fine", [False, True])
    def test_failed_self_check_raises(self, monkeypatch, fine):
        p = kg_reference(4)
        s = make_stats(0.6, 3.43)
        # a two-node rule on either side cannot agree with the other one
        nodes = list(cascade._E2E_NODES)
        nodes[fine] = 2
        monkeypatch.setattr(cascade, "_E2E_NODES", tuple(nodes))
        for frac in (0.05, 0.3, 1.0):
            x = frac * s.b_o * math.sqrt(p.omega_a)
            with pytest.raises(NoConvergence, match="cdf_Ae2e fixed rule .* coarse .* fine"):
                cdf_Ae2e_quadrature(p, s, x)
            with pytest.raises(NoConvergence, match="pdf_Ae2e fixed rule .* coarse .* fine"):
                pdf_Ae2e(p, s, x)

    @pytest.mark.parametrize("fine", [False, True])
    def test_cdf_A_failed_self_check_raises(self, monkeypatch, fine):
        # k_a = m_a = 1 routes F_A to the fixed rule; one inner panel over
        # the whole range on either side cannot agree with the other rule
        p = kg_double_rayleigh()
        per_log = cascade._panels_per_log
        monkeypatch.setattr(
            cascade, "_panels_per_log", lambda q, f: 1e-3 if f == fine else per_log(q, f)
        )
        for x in (0.05, 0.5):
            with pytest.raises(NoConvergence, match="cdf_A fixed rule .* coarse .* fine"):
                cdf_A(p, x)

    def test_self_check_returns_fine_value(self):
        rule = {False: 0.25 * (1.0 + 5e-10), True: 0.25}.get
        assert cascade._self_checked("r", 1.0, rule, rel=1e-9) == 0.25

    def test_self_check_absolute_floor(self):
        # near F = 0 the bound is 1e-13 absolute, not relative
        rule = {False: 9e-14, True: 1e-20}.get
        assert cascade._self_checked("r", 1.0, rule, rel=1e-9) == 1e-20
        rule = {False: 2e-13, True: 1e-20}.get
        with pytest.raises(NoConvergence):
            cascade._self_checked("r", 1.0, rule, rel=1e-9)

    def test_self_check_message_names_route_and_values(self):
        rule = {False: 0.5, True: 0.25}.get
        with pytest.raises(NoConvergence) as info:
            cascade._self_checked("pdf_Ae2e", 0.125, rule, rel=1e-9)
        assert str(info.value) == (
            "pdf_Ae2e fixed rule failed its self-check at x=0.125: coarse 0.5, fine 0.25"
        )

    def test_benchmark_shaped_grid_takes_no_fallback(self):
        def rice(k_db):
            return from_rice(10.0 ** (k_db / 10.0), 20)

        laws = [
            (moment_match(from_nakagami(1.0), rice(5.0), 4), 3.45),
            (moment_match(from_nakagami(1.0), from_nakagami(2.5), 8), 3.4),
            (moment_match(from_nakagami(1.5), rice(3.0), 16), 3.55),
            (moment_match(from_nakagami(1.0), rice(6.0), 32), 3.3),
        ]
        pole = moment_match(from_nakagami(1.2), rice(4.0), 8)
        laws.append((pole, 2.0 * pole.m_a))
        laws.append((make_kg(1.2 + 3.0 + 3e-4, 1.2), 3.5))
        for p, zeta in laws:
            s = make_stats(0.67, zeta)
            for u in np.geomspace(0.05, 1.5, 10):
                x = float(u) * s.b_o * math.sqrt(p.omega_a)
                assert 0.0 < cdf_Ae2e_quadrature(p, s, x) < 1.0
                assert pdf_Ae2e(p, s, x) > 0.0
