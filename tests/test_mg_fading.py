import math
import warnings

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sc
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import ks_2samp, kstest

from conftest import sample_envelope_one_block, sample_rice_exact
from ris_outage import (
    DomainError,
    MGDistribution,
    OverflowGuard,
    envelope_moment,
    envelope_pdf,
    from_nakagami,
    from_rice,
    product_moment,
    product_pdf,
    sample_envelope,
)

RICE_5DB = 10.0 ** 0.5  # linear K-factor for the 5 dB reference case
PI_OVER_4 = 0.78539816339744830961566084581987572104929234984378
FOUR_K0_2 = 0.45557549099813374261087829972992733199330649755524


def mixture_cdf(d):
    """Closed-form envelope CDF: sum_m w_m P(b_m, rate x^2)."""

    def cdf(x):
        x = np.asarray(x, dtype=float)
        return np.sum(
            d.weights * sc.gammainc(d.shapes, d.rate * x[..., None] ** 2), axis=-1
        )

    return cdf


def mp_envelope_pdf(d, x):
    """The mixture density at x to 30 digits."""
    with mp.workdps(30):
        x = mp.mpf(x)
        return sum(2 * mp.mpf(a) * x ** (2 * mp.mpf(b) - 1) * mp.exp(-mp.mpf(d.rate) * x**2)
                   for a, b in zip(d.coeffs, d.shapes))


def mp_product_pdf(d1, d2, x):
    """The product density's generalized-K mixture at x to 30 digits."""
    with mp.workdps(30):
        x, c1, c2 = mp.mpf(x), mp.mpf(d1.rate), mp.mpf(d2.rate)
        total = mp.mpf(0)
        for a1, b1 in zip(d1.coeffs, map(mp.mpf, d1.shapes)):
            for a2, b2 in zip(d2.coeffs, map(mp.mpf, d2.shapes)):
                total += (4 * mp.mpf(a1) * mp.mpf(a2) * (c1 / c2) ** (-(b1 - b2) / 2)
                          * x ** (b1 + b2 - 1) * mp.besselk(b1 - b2, 2 * mp.sqrt(c1 * c2) * x))
        return total


def mp_rice_moment(k_r, n):
    """E[R^n] = Gamma(1 + n/2) (1+K)^(-n/2) 1F1(-n/2; 1; -K) of the unit-power
    Rice envelope (Simon & Alouini, Digital Communication over Fading
    Channels, 2nd ed., 2005), to 40 digits."""
    with mp.workdps(40):
        k, h = mp.mpf(k_r), mp.mpf(n) / 2
        return mp.gamma(1 + h) * (1 + k) ** (-h) * mp.hyp1f1(-h, 1, -k)


def mixture_twin(d):
    """d built by hand: its terms and rate without rice_k, so that
    sample_envelope picks mixture components."""
    return MGDistribution(terms=d.terms, rate=d.rate)


@st.composite
def accepted_laws(draw):
    """An envelope law the scenario parser accepts: Nakagami m in
    [0.5, 300], or Rice K in [0, 28] dB with any n_terms >= 1."""
    if draw(st.booleans()):
        return from_nakagami(draw(st.floats(0.5, 300.0)))
    return from_rice(10.0 ** (draw(st.floats(0.0, 28.0)) / 10.0), draw(st.integers(1, 1000)))


class TestNakagamiMapping:
    def test_rayleigh_reduction(self):
        d = from_nakagami(1.0, 1.0)
        ((a, b),) = d.terms
        assert (a, b, d.rate) == (1.0, 1.0, 1.0)

    def test_m3(self):
        d = from_nakagami(3.0, 1.0)
        ((a, b),) = d.terms
        assert a == pytest.approx(27.0 / 2.0, rel=1e-14)
        assert b == 3.0
        assert d.rate == 3.0

    def test_normalization_exact(self):
        for m, omega in [(0.5, 1.0), (1.7, 0.3), (5.0, 2.0), (12.0, 1.0)]:
            d = from_nakagami(m, omega)
            assert d.normalization_residual() < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            from_nakagami(0.4)
        with pytest.raises(DomainError):
            from_nakagami(1.0, 0.0)


class TestRiceMapping:
    def test_k0_is_rayleigh(self):
        d = from_rice(0.0, 20)
        ((a, b),) = d.terms
        assert (a, b, d.rate) == (1.0, 1.0, 1.0)

    def test_normalization(self):
        for k_r in (0.5, RICE_5DB, 10.0):
            assert from_rice(k_r, 20).normalization_residual() < 1e-9

    @pytest.mark.parametrize("n_terms", [1, 2, 5, 20, 40, 60])
    def test_normalization_bits_match_scipy_logsumexp(self, n_terms):
        # oracle: the raw weights normalized by scipy.special.logsumexp,
        # which from_rice writes out; every coefficient must keep its bits.
        # The law's last shape is its term count: the terms past it
        # underflow to zero and carry no bit of the sum
        for k_r in [0.0, 1e-3, *np.geomspace(1e-4, 10.0 ** 2.8, 60)]:
            d = from_rice(float(k_r), n_terms)
            ks = np.arange(1.0, d.shapes[-1] + 1.0)
            if k_r == 0.0:
                log_delta = np.where(ks == 1.0, 0.0, -np.inf)
            else:
                log_delta = ((ks - 1.0) * math.log(k_r) + ks * math.log1p(k_r)
                             - k_r - 2.0 * sc.gammaln(ks))
            log_mass = log_delta + sc.gammaln(ks) - ks * math.log(1.0 + k_r)
            a = np.exp(log_delta - sc.logsumexp(log_mass))
            assert d.terms == tuple((float(ai), float(k)) for ai, k in zip(a, ks) if ai > 0.0)

    def test_weights_positive(self):
        d = from_rice(RICE_5DB, 20)
        assert np.all(d.weights > 0)

    def test_ks_distance_to_exact_rice(self):
        # oracle: direct sampling of the exact Rice construction
        d = from_rice(RICE_5DB, 20)
        rng = np.random.default_rng(42)
        samples = sample_rice_exact(RICE_5DB, rng, 1_000_000)
        stat = kstest(samples, mixture_cdf(d)).statistic
        assert stat <= 0.005

    def test_guards(self):
        for bad in (-0.1, math.inf, math.nan):
            with pytest.raises(DomainError):
                from_rice(bad)
        with pytest.raises(DomainError):
            from_rice(1.0, 0)
        # the largest coefficient, about e^(K - 0.84), leaves float range
        # past K = 709.78 (28.51 dB)
        from_rice(709.78)
        for k_r in (709.79, 10.0**2.9, 1e300):
            with pytest.raises(OverflowGuard):
                from_rice(k_r)

    @pytest.mark.parametrize("k_db,count", [(5.0, 32), (10.0, 52), (20.0, 207)])
    def test_term_count_reaches_the_tail(self, k_db, count):
        # the law keeps the fewest terms whose dropped Poisson tail is at
        # most 1e-20; n_terms is a lower bound on that count
        k_r = 10.0 ** (k_db / 10.0)
        d = from_rice(k_r, 20)
        assert len(d.terms) == count and d.label == f"rice(K={k_r:g}, terms={count})"
        assert sc.gammainc(count, k_r) <= 1e-20 < sc.gammainc(count - 1, k_r)
        assert len(from_rice(k_r, count + 10).terms) == count + 10
        # normalization hides nothing: the 10 dB law had E[X^2] = 0.9966
        # with 20 terms
        assert envelope_moment(d, 2) == pytest.approx(1.0, rel=1e-15)

    def test_huge_n_terms_keeps_only_representable_terms(self):
        # terms past e^2 (1 + K) and 373 underflow to zero, so a huge
        # n_terms costs no memory and changes no bit
        assert from_rice(1.0, 10**12) == from_rice(1.0, 373)

    @pytest.mark.parametrize("k_db", [-10.0, -3.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 28.0])
    def test_moments_match_rice_closed_form(self, k_db):
        # oracle: the exact Rice moments through 1F1, at 40 digits
        k_r = 10.0 ** (k_db / 10.0)
        orders = range(1, 13)
        got = envelope_moment(from_rice(k_r), list(orders))
        want = [float(mp_rice_moment(k_r, n)) for n in orders]
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)


class TestEnvelopePdf:
    def test_rayleigh_closed_form(self):
        d = from_nakagami(1.0)
        assert envelope_pdf(d, 1.0) == pytest.approx(2.0 / math.e, rel=1e-14)
        assert envelope_pdf(d, 0.0) == 0.0

    def test_decay_at_infinity(self):
        d = from_rice(RICE_5DB, 20)
        assert envelope_pdf(d, 50.0) < 1e-300 or envelope_pdf(d, 50.0) == 0.0

    def test_normalization(self):
        for d in (from_nakagami(2.5), from_rice(2.0, 20)):
            val, _ = quad(lambda x: envelope_pdf(d, x), 0.0, 20.0, limit=200)
            assert val == pytest.approx(1.0, abs=1e-9)

    def test_rice_pdf_against_exact_histogram(self):
        # 10^7 exact Rice samples, bin +-0.005 around x = 1
        d = from_rice(RICE_5DB, 20)
        rng = np.random.default_rng(5)
        samples = sample_rice_exact(RICE_5DB, rng, 10_000_000)
        width = 0.01
        p_hat = np.mean(np.abs(samples - 1.0) <= width / 2.0)
        dens_hat = p_hat / width
        stderr = math.sqrt(p_hat * (1.0 - p_hat) / samples.size) / width
        assert abs(dens_hat - float(envelope_pdf(d, 1.0))) <= 3.0 * stderr + 1e-4


    def test_large_shape_against_mp_reference(self):
        # (m/omega)^m / Gamma(m) x^(2m-1) leaves float range before
        # exp(-m x^2) brings it back
        d = from_nakagami(300.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = envelope_pdf(d, 2.0)
        assert got == pytest.approx(float(mp_envelope_pdf(d, 2.0)), rel=1e-12, abs=0.0)


class TestProductMoment:
    def test_zeroth(self):
        assert product_moment(from_nakagami(1.0), from_rice(2.0, 20), 0) == pytest.approx(
            1.0, rel=1e-12
        )

    def test_double_rayleigh_power(self):
        d = from_nakagami(1.0)
        assert product_moment(d, d, 2) == pytest.approx(1.0, rel=1e-12)

    def test_double_rayleigh_mean(self):
        d = from_nakagami(1.0)
        assert product_moment(d, d, 1) == pytest.approx(PI_OVER_4, rel=1e-12)

    def test_equals_quadrature_of_product_pdf(self):
        d1, d2 = from_nakagami(3.0), from_rice(RICE_5DB, 20)
        for n in (1, 2, 4, 6):
            val, _ = quad(
                lambda x: x**n * float(product_pdf(d1, d2, x)), 1e-12, 30.0, limit=400
            )
            assert val == pytest.approx(product_moment(d1, d2, n), rel=1e-7)


class TestProductPdf:
    def test_double_rayleigh_closed_form(self):
        d = from_nakagami(1.0)
        # 4 x K_0(2x) at x = 1
        assert float(product_pdf(d, d, 1.0)) == pytest.approx(FOUR_K0_2, rel=1e-12)

    def test_normalization(self):
        d1, d2 = from_nakagami(2.0), from_rice(1.0, 20)
        val, _ = quad(lambda x: float(product_pdf(d1, d2, x)), 1e-12, 40.0, limit=400)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_against_mc_histogram(self):
        # Nakagami(3) x Rice(5 dB) at x = 0.8 vs 10^7-sample histogram
        d1, d2 = from_nakagami(3.0), from_rice(RICE_5DB, 20)
        rng = np.random.default_rng(11)
        n = 10_000_000
        nak = np.sqrt(rng.gamma(3.0, 1.0 / 3.0, n))  # exact Nakagami draw
        rice = sample_rice_exact(RICE_5DB, rng, n)
        chi = nak * rice
        width = 0.01
        p_hat = np.mean(np.abs(chi - 0.8) <= width / 2.0)
        dens_hat = p_hat / width
        stderr = math.sqrt(p_hat * (1.0 - p_hat) / n) / width
        assert abs(dens_hat - float(product_pdf(d1, d2, 0.8))) <= 3.0 * stderr + 1e-4


    @pytest.mark.parametrize(
        "d2,x",
        [(from_nakagami(0.5), 1e-6), (from_nakagami(0.5), 1e-8), (from_rice(1.0, 5), 1e-6)],
        ids=["nakagami0.5-1e-6", "nakagami0.5-1e-8", "rice0dB-1e-6"],
    )
    def test_high_order_small_argument_against_mp_reference(self, d2, x):
        # K_(b1-b2) at orders up to 111 (the 16 dB law keeps 112 terms)
        # overflows at small argument, while the term x^(b1+b2-1) K_(b1-b2)
        # does not
        d1 = from_rice(10.0**1.6, 60)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = product_pdf(d1, d2, x)
        assert got == pytest.approx(float(mp_product_pdf(d1, d2, x)), rel=1e-12, abs=0.0)

    @settings(max_examples=60, deadline=None)
    @given(accepted_laws(), accepted_laws(), st.floats(-8.0, 2.0))
    def test_densities_finite_for_accepted_laws(self, d1, d2, log10_x):
        x = 10.0**log10_x
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            values = (envelope_pdf(d1, x), envelope_pdf(d2, x), product_pdf(d1, d2, x))
        for v in values:
            assert math.isfinite(v) and v >= 0.0


class TestSampling:
    def test_rayleigh_unit_power(self):
        d = from_nakagami(1.0)
        rng = np.random.default_rng(1)
        x = sample_envelope(d, rng, size=1_000_000)
        # x^2 is Exp(1): variance 1
        assert abs(np.mean(x**2) - 1.0) <= 3.0 / math.sqrt(x.size)

    def test_rice_mean_matches_closed_form(self):
        d = from_rice(RICE_5DB, 20)
        rng = np.random.default_rng(2)
        x = sample_envelope(d, rng, size=1_000_000)
        target = envelope_moment(d, 1)
        stderr = np.std(x) / math.sqrt(x.size)
        assert abs(np.mean(x) - target) <= 3.0 * stderr

    def test_empirical_moments(self):
        d = from_rice(2.0, 20)
        rng = np.random.default_rng(3)
        x = sample_envelope(d, rng, size=1_000_000)
        for n in (1, 2, 4):
            target = envelope_moment(d, n)
            stderr = np.std(x**n) / math.sqrt(x.size)
            assert abs(np.mean(x**n) - target) <= 4.0 * stderr

    def test_rice_k_set_on_every_rice_law(self):
        # every from_rice law with K > 0 is the Rice law, so it draws Rice
        for k_r in (1e-3, RICE_5DB, 10.0**0.55, 10.0, 10.0**2.8):
            assert from_rice(k_r, 20).rice_k == k_r
        for d in (from_rice(0.0, 20), from_nakagami(1.0)):
            assert d.rice_k is None
        # a law built by hand never draws Rice, and rice_k is not compared
        d = from_rice(RICE_5DB, 20)
        twin = MGDistribution(terms=d.terms, rate=d.rate, label=d.label)
        assert twin.rice_k is None and twin == d and hash(twin) == hash(d)
        with pytest.raises(TypeError):
            MGDistribution(terms=d.terms, rate=d.rate, rice_k=RICE_5DB)

    def test_rice_draw_against_exact_rice(self):
        d = from_rice(RICE_5DB, 20)
        x = sample_envelope(d, np.random.default_rng(6), size=(500, 400))
        ref = sample_rice_exact(RICE_5DB, np.random.default_rng(7), 200_000)
        assert x.shape == (500, 400)
        assert ks_2samp(x.ravel(), ref).pvalue > 1e-3

    def test_mixture_draw_moments(self):
        # a hand-built twin of the 7 dB law has no rice_k: the mixture is drawn
        d = mixture_twin(from_rice(10.0**0.7, 20))
        assert d.rice_k is None
        x = sample_envelope(d, np.random.default_rng(4), size=1_000_000)
        for n in (1, 2, 4):
            target = envelope_moment(d, n)
            stderr = np.std(x**n) / math.sqrt(x.size)
            assert abs(np.mean(x**n) - target) <= 4.0 * stderr

    @pytest.mark.parametrize("d", [from_rice(RICE_5DB, 20), mixture_twin(from_rice(10.0**0.7, 20)),
                                   from_nakagami(2.0)], ids=["rice", "mixture", "nakagami"])
    def test_scalar_draw_is_float(self, d):
        x = sample_envelope(d, np.random.default_rng(8))
        assert type(x) is float and x > 0.0

    @pytest.mark.parametrize("d", [from_nakagami(1.0), from_nakagami(1.0, 2.5), from_rice(0.0)],
                             ids=["rayleigh", "rayleigh-omega", "rice-k0"])
    @pytest.mark.parametrize("size", [None, 1, 7, (100, 16), (8192, 4), (3, 5, 2)])
    def test_shape_one_draw_is_the_gamma_draw(self, d, size):
        # the exponential draw of a shape-1 law repeats standard_gamma(1.0)
        # value for value and leaves the generator where it would
        assert d.terms[0][1] == 1.0 and d.rice_k is None
        for seed in range(5):
            rng, ref = (np.random.Generator(np.random.Philox(seed)) for _ in range(2))
            x = sample_envelope(d, rng, size)
            y = np.sqrt(ref.standard_gamma(1.0, size) / d.rate)
            y = y if np.ndim(y) else float(y)
            assert type(x) is type(y) and np.array_equal(x, y)
            assert repr(rng.bit_generator.state) == repr(ref.bit_generator.state)
            assert np.array_equal(rng.random(4), ref.random(4))

    @pytest.mark.parametrize("d", [from_rice(10.0**0.05), from_rice(RICE_5DB), from_rice(100.0),
                                   from_nakagami(1.0), from_nakagami(2.5),
                                   mixture_twin(from_rice(RICE_5DB)),
                                   MGDistribution(terms=((0.3 / math.gamma(0.6), 0.6),
                                                         (0.7 / math.gamma(2.5), 2.5)), rate=1.0)],
                             ids=["rice-0.5dB", "rice-5dB", "rice-20dB", "nakagami-1",
                                  "nakagami-2.5", "hand-built-rice-5dB", "hand-built-2-terms"])
    @pytest.mark.parametrize("size", [(8192, 16), (3392, 4), (0, 4), (5000, 17), None])
    def test_draw_is_the_one_block_draw(self, d, size):
        # the Rice draw squares Z1 in place and adds Z2 in slices; the
        # Gamma draws scale in place: same bits, same generator state
        for seed in range(3):
            rng, ref = (np.random.Generator(np.random.Philox(seed)) for _ in range(2))
            x = sample_envelope(d, rng, size)
            y = sample_envelope_one_block(d, ref, size)
            assert type(x) is type(y)
            assert np.array_equal(np.asarray(x).view(np.uint64), np.asarray(y).view(np.uint64))
            assert repr(rng.bit_generator.state) == repr(ref.bit_generator.state)
            assert np.array_equal(rng.standard_normal(4), ref.standard_normal(4))

    def test_deterministic_under_seed(self):
        d = from_rice(1.0, 20)
        a = sample_envelope(d, np.random.default_rng(99), size=1000)
        b = sample_envelope(d, np.random.default_rng(99), size=1000)
        assert np.array_equal(a, b)


class TestMGDistributionInvariants:
    def test_rejects_bad_normalization(self):
        with pytest.raises(DomainError):
            MGDistribution(terms=((2.0, 1.0),), rate=1.0)

    def test_rejects_nonpositive_terms(self):
        with pytest.raises(DomainError):
            MGDistribution(terms=((1.0, -1.0),), rate=1.0)
        with pytest.raises(DomainError):
            MGDistribution(terms=((1.0, 1.0),), rate=0.0)
