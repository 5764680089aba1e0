import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.constants import c as SPEED_OF_LIGHT
from scipy.integrate import quad

from conftest import make_stats, mp_geometry_chain
from ris_outage import (
    DegenerateJitter,
    DomainError,
    GeometryConfig,
    LinkBudget,
    average_snr,
    beamwidth,
    coherence_length,
    hg_pdf,
    misalignment_stats,
    sample_hg,
)

# reference deployment used across the geometry tests: 5 m hop, 1 mm
# waist, 100 GHz carrier, strong turbulence parameter, 10 cm aperture
REF = dict(
    l2=5.0,
    w_o=1e-3,
    f=100e9,
    cn2=2.3e-9,
    alpha=0.1,
    theta=7 * math.pi / 4,
    phi=2 * math.pi / 3,
    sigma_p=0.05,
    sigma_o=0.0,
    d_x=0.0,
)


def cfg(**overrides) -> GeometryConfig:
    return GeometryConfig(**{**REF, **overrides})


class TestBeamwidth:
    def test_waist_limit(self):
        g = cfg(cn2=0.0, l2=1e-9)
        assert beamwidth(g) == pytest.approx(g.w_o, rel=1e-9)

    def test_reference_against_high_precision(self):
        g = cfg()
        ref = mp_geometry_chain(g)
        assert beamwidth(g) == pytest.approx(ref["w_l2"], rel=1e-12)

    def test_monotone_in_distance(self):
        widths = [beamwidth(cfg(l2=l)) for l in (1.0, 2.0, 5.0, 10.0, 20.0)]
        assert all(b > a for a, b in zip(widths, widths[1:]))


class TestCoherenceLength:
    def test_power_law_in_distance(self):
        r1 = coherence_length(cfg(l2=5.0))
        r2 = coherence_length(cfg(l2=10.0))
        assert r2 / r1 == pytest.approx(2.0 ** (-3.0 / 5.0), rel=1e-12)

    def test_reference_against_high_precision(self):
        g = cfg()
        ref = mp_geometry_chain(g)
        assert coherence_length(g) == pytest.approx(ref["rho_l2"], rel=1e-12)

    def test_decreasing_in_each_parameter(self):
        base = coherence_length(cfg())
        assert coherence_length(cfg(cn2=REF["cn2"] * 2)) < base
        assert coherence_length(cfg(f=REF["f"] * 2)) < base
        assert coherence_length(cfg(l2=REF["l2"] * 2)) < base

    def test_no_turbulence_is_infinite(self):
        # cn2 = 0 is the no-turbulence limit: the coherence length is
        # infinite and the beam spreads by diffraction alone, bit for bit
        g = cfg(cn2=0.0)
        assert coherence_length(g) == math.inf
        assert misalignment_stats(g).rho_l2 == math.inf
        spread = SPEED_OF_LIGHT * g.l2 / (math.pi * g.f * g.w_o**2)
        assert beamwidth(g) == g.w_o * math.sqrt(1.0 + spread**2)


class TestMisalignmentStats:
    def test_symmetric_orientation(self):
        s = misalignment_stats(cfg(theta=0.0, phi=math.pi / 2))
        assert s.rho_min == pytest.approx(1.0, abs=1e-14)
        assert s.rho_max == pytest.approx(1.0, abs=1e-14)
        assert s.v_min == pytest.approx(s.v_max, rel=1e-14)

    def test_full_chain_against_high_precision(self):
        g = cfg()
        s = misalignment_stats(g)
        ref = mp_geometry_chain(g)
        for name in (
            "w_l2", "rho_l2", "rho_min", "rho_max", "v_min", "v_max",
            "b_o", "k_min", "k_max", "k_m", "zeta",
        ):
            assert getattr(s, name) == pytest.approx(ref[name], rel=1e-10), name

    @given(
        theta=st.floats(0.0, 2 * math.pi),
        phi=st.floats(0.05, math.pi - 0.05),
    )
    @settings(max_examples=150, deadline=None)
    def test_footprint_eigenvalue_order_and_bo_range(self, theta, phi):
        try:
            s = misalignment_stats(cfg(theta=theta, phi=phi))
        except DomainError:
            return  # degenerate edge-on orientation, guarded explicitly
        assert s.rho_min <= s.rho_max + 1e-12
        assert 0.0 < s.b_o < 1.0

    def test_zeta_depends_only_on_combined_jitter(self):
        # equal 4 sigma_p^2 + 4 d_x^2 sigma_o^2 under different splits
        s1 = misalignment_stats(cfg(sigma_p=0.05, sigma_o=0.0, d_x=0.0))
        s2 = misalignment_stats(cfg(sigma_p=0.0, sigma_o=0.5, d_x=0.1))
        s3 = misalignment_stats(cfg(sigma_p=0.03, sigma_o=0.4, d_x=0.1))
        assert s2.zeta == pytest.approx(s1.zeta, rel=1e-14)
        assert s3.zeta == pytest.approx(s1.zeta, rel=1e-14)

    def test_bo_increases_with_aperture(self):
        values = [misalignment_stats(cfg(alpha=a)).b_o for a in (0.02, 0.05, 0.1, 0.2)]
        assert all(b > a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize(
        "field,value",
        [
            ("alpha", math.inf), ("alpha", math.nan), ("w_o", math.inf), ("phi", math.nan),
            ("l2", math.inf), ("f", -math.inf), ("cn2", math.nan), ("theta", math.inf),
            ("sigma_p", math.nan), ("sigma_o", math.inf), ("d_x", -math.inf),
        ],
    )
    def test_non_finite_input_rejected(self, field, value):
        with pytest.raises(DomainError, match=field):
            cfg(**{field: value})

    @pytest.mark.parametrize("alpha", [0.005, 5.0, 60.0, 100.0])
    def test_chain_against_high_precision_across_apertures(self, alpha):
        # from erf(v) ~ v to erf(v) = 1 in floats (b_o = 1 from alpha = 60)
        # and up to v_min = 26.3, just below the limit where exp(-v^2)
        # underflows
        g = cfg(alpha=alpha)
        s = misalignment_stats(g)
        ref = mp_geometry_chain(g)
        for name in ("v_min", "v_max", "b_o", "k_min", "k_max", "zeta"):
            assert getattr(s, name) == pytest.approx(ref[name], rel=1e-10), name

    @pytest.mark.parametrize("alpha", [200.0, 1e200, 1e308])
    def test_oversized_aperture_rejected(self, alpha):
        with pytest.raises(DomainError, match="aperture too large"):
            misalignment_stats(cfg(alpha=alpha))
        # without jitter the point still takes the aligned path
        with pytest.raises(DegenerateJitter):
            misalignment_stats(cfg(alpha=alpha, sigma_p=0.0))

    def test_degenerate_jitter(self):
        with pytest.raises(DegenerateJitter):
            misalignment_stats(cfg(sigma_p=0.0))
        with pytest.raises(DegenerateJitter):
            misalignment_stats(cfg(sigma_p=0.0, sigma_o=0.5, d_x=0.0))


class TestGeometricLossLaw:
    def test_support(self):
        s = make_stats(0.6, 2.5)
        assert hg_pdf(s, 0.61) == 0.0
        assert hg_pdf(s, -0.1) == 0.0
        assert hg_pdf(s, 0.3) > 0.0

    def test_normalization_closed_form(self):
        # antiderivative of the density is (x/B_o)^zeta: total mass exactly 1
        for zeta in (0.4, 1.0, 3.7):
            s = make_stats(0.5, zeta)
            val, _ = quad(
                lambda x: float(hg_pdf(s, x)), 0.0, s.b_o,
                points=[s.b_o * 0.5], limit=200,
            )
            assert val == pytest.approx(1.0, abs=1e-9)
            # analytic antiderivative at the endpoints
            assert (s.b_o / s.b_o) ** zeta == 1.0

    def test_mean(self):
        s = make_stats(0.8, 3.0)
        val, _ = quad(lambda x: x * float(hg_pdf(s, x)), 0.0, s.b_o, limit=200)
        assert val == pytest.approx(s.b_o * s.zeta / (s.zeta + 1.0), rel=1e-9)

    def test_small_zeta_divergent_but_integrable(self):
        s = make_stats(0.5, 0.3)
        assert hg_pdf(s, 1e-12) > 1e3  # divergence at the origin
        # mass below epsilon follows the antiderivative exactly
        eps = 1e-6 * s.b_o
        val, _ = quad(lambda x: float(hg_pdf(s, x)), eps, s.b_o, limit=400)
        assert val + (eps / s.b_o) ** s.zeta == pytest.approx(1.0, abs=1e-7)


class TestSampleHg:
    def test_bounds(self):
        s = make_stats(0.7, 2.0)
        draws = sample_hg(s, np.random.default_rng(0), size=100_000)
        assert np.all(draws > 0.0)
        assert np.all(draws <= s.b_o)

    def test_mean(self):
        s = make_stats(0.7, 2.0)
        draws = sample_hg(s, np.random.default_rng(1), size=1_000_000)
        target = s.b_o * s.zeta / (s.zeta + 1.0)
        stderr = np.std(draws) / math.sqrt(draws.size)
        assert abs(np.mean(draws) - target) <= 4.0 * stderr

    def test_cdf_at_midpoint(self):
        s = make_stats(0.7, 2.0)
        draws = sample_hg(s, np.random.default_rng(2), size=1_000_000)
        target = 0.5 ** s.zeta
        p_hat = np.mean(draws <= s.b_o / 2.0)
        stderr = math.sqrt(target * (1.0 - target) / draws.size)
        assert abs(p_hat - target) <= 4.0 * stderr


class TestLinkBudget:
    def test_identity_budget(self):
        lb = LinkBudget(l1=1, l2=1, n1=0, n2=0, dist1=3, dist2=7, p_s=1, sigma_w2=1)
        assert average_snr(lb) == 1.0

    def test_linear_in_power(self):
        lb1 = LinkBudget(l1=2, l2=1, n1=2, n2=2, dist1=3, dist2=7, p_s=1, sigma_w2=1e-3)
        lb2 = LinkBudget(l1=2, l2=1, n1=2, n2=2, dist1=3, dist2=7, p_s=2, sigma_w2=1e-3)
        assert average_snr(lb2) == pytest.approx(2.0 * average_snr(lb1), rel=1e-14)

    def test_inverse_square(self):
        lb1 = LinkBudget(l1=1, l2=1, n1=0, n2=2, dist1=1, dist2=2, p_s=1, sigma_w2=1)
        lb2 = LinkBudget(l1=1, l2=1, n1=0, n2=2, dist1=1, dist2=4, p_s=1, sigma_w2=1)
        assert average_snr(lb2) == pytest.approx(average_snr(lb1) / 4.0, rel=1e-14)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            LinkBudget(l1=0, l2=1, n1=2, n2=2, dist1=1, dist2=1, p_s=1, sigma_w2=1)

    @pytest.mark.parametrize("name", ["l1", "l2", "n1", "n2", "dist1", "dist2", "p_s", "sigma_w2"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite(self, name, value):
        ok = dict(l1=1, l2=1, n1=2, n2=2, dist1=1, dist2=1, p_s=1, sigma_w2=1)
        with pytest.raises(DomainError):
            LinkBudget(**{**ok, name: value})
