"""Shared high-precision and sampling oracles for the test suite.

Everything here is deliberately independent of the library's fast paths:
mpmath re-implementations evaluate the same formulas at 50+ digits, and
the Rice sampler draws the exact construction (two Gaussians plus a
line-of-sight component) rather than the mixture approximation.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

from ris_outage import KGParams, MisalignmentStats

mp.mp.dps = 50

SPEED_OF_LIGHT = 299792458.0


# --- special-function / series oracles -------------------------------------


def mp_hyp1f2_brute(a, b1, b2, z, n_terms=800):
    """Plain extended-precision partial sum, no acceleration."""
    a, b1, b2, z = map(mp.mpf, map(str, (a, b1, b2, z)))
    term = mp.mpf(1)
    total = mp.mpf(1)
    for n in range(n_terms):
        term *= (a + n) * z / ((b1 + n) * (b2 + n) * (n + 1))
        total += term
    return total


# --- generalized-K oracles ---------------------------------------------------


def _mp_kg_pdf(k, m, xx):
    return (
        lambda t: 4
        * xx ** (k + m)
        / (mp.gamma(k) * mp.gamma(m))
        * t ** (k + m - 1)
        * mp.besselk(k - m, 2 * xx * t)
    )


def mp_pdf_A(k_a, m_a, xi, x):
    """50-digit density of the generalized-K law (mpmath besselk)."""
    k, m, xx = mp.mpf(str(k_a)), mp.mpf(str(m_a)), mp.mpf(str(xi))
    return _mp_kg_pdf(k, m, xx)(mp.mpf(str(x)))


def _mp_branches(k, m, xx, x):
    """The two terms C_s x^(2s) 1F2(s; 1+s, 1+s-o; xi^2 x^2) of the
    expansion of F_A, evaluated at the working precision."""
    z = xx * xx * x * x
    return [
        mp.gamma(o - s) * xx ** (2 * s) * x ** (2 * s) / (s * mp.gamma(k) * mp.gamma(m))
        * mp.hyp1f2(s, 1 + s, 1 + s - o, z)
        for s, o in ((m, k), (k, m))
    ]


def mp_cdf_A(k_a, m_a, xi, x):
    """CDF of the generalized-K law to the working precision (50 digits).

    Routes: density quadrature near integer k - m, else the two-branch
    expansion.  The branches grow like exp(2 xi x) and cancel to
    F_A <= 1, by 28 digits already at the expansion argument 396 for
    (k, m) = (34.7, 13.0).  Where a pass at the working precision
    cancels more than 10 digits, the branches are summed again with the
    precision raised by the digits lost, or by log10 of the larger branch
    where that is more (a pass that kept no digit misreads its loss),
    plus 10 guard digits."""
    k, m, xx = mp.mpf(str(k_a)), mp.mpf(str(m_a)), mp.mpf(str(xi))
    x = mp.mpf(str(x))
    if x <= 0:
        return mp.mpf(0)
    d = k - m
    if abs(d - mp.nint(d)) < mp.mpf("1e-8"):
        return mp.quad(_mp_kg_pdf(k, m, xx), [0, x])
    branches = _mp_branches(k, m, xx, x)
    total = sum(branches)
    lead = max(mp.log10(abs(b)) for b in branches)
    lost = lead - mp.log10(abs(total)) if total else mp.mpf(mp.mp.dps)
    if lost <= 10:
        return total
    with mp.workdps(mp.mp.dps + int(mp.ceil(max(lead, lost))) + 10):
        total = sum(_mp_branches(k, m, xx, x))
    return +total


def mp_x_saturated(k_a, m_a, xi) -> float:
    """x beyond which 1 - F_A < ~1e-45 (float-side union bound)."""
    import scipy.special as sc

    return float(
        math.sqrt(sc.gammainccinv(k_a, 1e-45) * sc.gammainccinv(m_a, 1e-45)) / xi
    )


def mp_cdf_Ae2e(k_a, m_a, xi, b_o, zeta, x, dps=40):
    """Extended-precision defining integral for the end-to-end CDF,
    F(x) = int_0^1 F_A(x / (B_o t^(1/zeta))) dt, taken over y = -log t:

      F(x) = e^-y_sat + int_0^y_sat e^-y F_A(x e^(y/zeta) / B_o) dy,

    where F_A = 1 to 45 digits beyond y_sat.  The range stops where e^-y
    falls below e^-70 F_A(x / B_o), which is below 1e-30 F.  Its equal
    panels are at most zeta times the standard deviation of log A wide
    (the width of the knee of F_A in y), and at most 4.  Each carries a
    12- and a 16-point Gauss-Legendre rule; RuntimeError if the two
    sums differ by more than 1e-20 relative.  The number of mp_cdf_A
    calls follows from (zeta, x, B_o) and the shapes' smooth functions,
    not from their last bits."""
    with mp.workdps(dps):
        b_o_m, zeta_m, x_m = map(mp.mpf, map(str, (b_o, zeta, x)))
        x_sat = mp.mpf(str(mp_x_saturated(k_a, m_a, xi)))
        if x_m >= b_o_m * x_sat:
            return mp.mpf(1)
        y_sat = zeta_m * mp.log(b_o_m * x_sat / x_m)
        y_top = min(y_sat, 70 - mp.log(mp_cdf_A(k_a, m_a, xi, x_m / b_o_m)))
        k, m = mp.mpf(str(k_a)), mp.mpf(str(m_a))
        knee = zeta_m * mp.sqrt(mp.psi(1, k) + mp.psi(1, m)) / 2
        n_panels = int(mp.ceil(y_top / min(knee, 4)))
        half = y_top / (2 * n_panels)
        sums = []
        for degree in (12, 16):
            nodes, weights = mp.gauss_quadrature(degree, "legendre")
            total = mp.mpf(0)
            for i in range(n_panels):
                for node, weight in zip(nodes, weights):
                    y = (2 * i + 1 + node) * half
                    u = x_m * mp.exp(y / zeta_m) / b_o_m
                    total += weight * mp.exp(-y) * mp_cdf_A(k_a, m_a, xi, u)
            sums.append(total * half + mp.exp(-y_sat))
        coarse, fine = sums
        if abs(fine - coarse) > mp.mpf("1e-20") * fine:
            raise RuntimeError(
                f"mp_cdf_Ae2e: 12- and 16-point rules differ at x={x!r}, zeta={zeta!r}: "
                f"{mp.nstr(coarse, 25)} vs {mp.nstr(fine, 25)}"
            )
        return fine


def mp_moment_match(d1, d2, n_elements):
    """Extended-precision re-implementation of the moment matching chain
    on raw moments, independent of the library's cumulants.  The single-
    product moments are divided by their mass mu_0 (the float mixture's
    weights sum to 1 only to rounding), and E[A^o], o = 0..6, is the first
    column of L^N, L[o, j] = C(o, j) mu_(o-j), taken by mpmath's repeated
    squaring at 60 + 8 log10 N digits (the quadratic's leading coefficient
    cancels as N^2)."""
    with mp.workdps(60 + int(8 * math.log10(n_elements))):
        def env_moment(d, n):
            return sum(
                mp.mpf(str(a)) * mp.gamma(mp.mpf(str(b)) + mp.mpf(n) / 2)
                * mp.mpf(str(d.rate)) ** (-(mp.mpf(str(b)) + mp.mpf(n) / 2))
                for a, b in d.terms
            )

        mu = [env_moment(d1, n) * env_moment(d2, n) for n in range(7)]
        mu = [v / mu[0] for v in mu]
        step = mp.matrix(7, 7)
        for o in range(7):
            for j in range(o + 1):
                step[o, j] = mp.binomial(o, j) * mu[o - j]
        cur = step ** int(n_elements)
        mu2, mu4, mu6 = cur[2, 0], cur[4, 0], cur[6, 0]
        a_c = mu6 * mu2 + mu2**2 * mu4 - 2 * mu4**2
        b_c = mu6 * mu2 - 4 * mu4**2 + 3 * mu2**2 * mu4
        c_c = 2 * mu2**2 * mu4
        disc = mp.sqrt(b_c * b_c - 4 * a_c * c_c)
        r1 = (-b_c + disc) / (2 * a_c)
        r2 = (-b_c - disc) / (2 * a_c)
        k_a, m_a = max(r1, r2), min(r1, r2)
        xi = mp.sqrt(k_a * m_a / mu2)
        return float(k_a), float(m_a), float(xi), float(mu2)


# --- geometry oracle ---------------------------------------------------------


def mp_geometry_chain(cfg):
    """50-digit re-evaluation of the full geometry pipeline."""
    l2, w_o, f, cn2 = map(mp.mpf, map(str, (cfg.l2, cfg.w_o, cfg.f, cfg.cn2)))
    alpha, theta, phi = map(mp.mpf, map(str, (cfg.alpha, cfg.theta, cfg.phi)))
    sigma_p, sigma_o, d_x = map(
        mp.mpf, map(str, (cfg.sigma_p, cfg.sigma_o, cfg.d_x))
    )
    c = mp.mpf(str(SPEED_OF_LIGHT))
    k_wave = 2 * mp.pi * f / c
    rho_c = (mp.mpf("0.55") * cn2 * k_wave**2 * l2) ** (mp.mpf(-3) / 5)
    spread = c * l2 / (mp.pi * f * w_o**2)
    w = w_o * mp.sqrt(1 + (1 + 2 * w_o**2 / rho_c**2) * spread**2)
    rho_y = mp.cos(phi) ** 2 + mp.sin(phi) ** 2 * mp.cos(theta) ** 2
    rho_z = mp.sin(phi) ** 2
    rho_yz = -mp.cos(phi) * mp.sin(phi) * mp.sin(theta)
    disc = mp.sqrt((rho_y - rho_z) ** 2 + 4 * rho_yz**2)
    rho_min = 2 / (rho_y + rho_z + disc)
    rho_max = 2 / (rho_y + rho_z - disc)
    v_min = alpha / w * mp.sqrt(mp.pi / (2 * rho_min))
    v_max = alpha / w * mp.sqrt(mp.pi / (2 * rho_max))
    b_o = mp.erf(v_min) * mp.erf(v_max)
    k_min = mp.sqrt(mp.pi) * rho_min * mp.erf(v_min) / (2 * v_min * mp.exp(-v_min**2))
    k_max = mp.sqrt(mp.pi) * rho_max * mp.erf(v_max) / (2 * v_max * mp.exp(-v_max**2))
    k_m = (k_min + k_max) / 2
    zeta = k_m * w**2 / (4 * sigma_p**2 + 4 * d_x**2 * sigma_o**2)
    return {
        "rho_l2": float(rho_c),
        "w_l2": float(w),
        "rho_min": float(rho_min),
        "rho_max": float(rho_max),
        "v_min": float(v_min),
        "v_max": float(v_max),
        "b_o": float(b_o),
        "k_min": float(k_min),
        "k_max": float(k_max),
        "k_m": float(k_m),
        "zeta": float(zeta),
    }


# --- exact Rice sampler (oracle for the mixture approximation) ---------------


def sample_rice_exact(k_r: float, rng: np.random.Generator, size) -> np.ndarray:
    """Exact unit-mean-power Rice envelope: deterministic LOS amplitude
    sqrt(K/(1+K)) plus complex Gaussian scatter of power 1/(1+K)."""
    nu = math.sqrt(k_r / (1.0 + k_r))
    sigma = math.sqrt(1.0 / (2.0 * (1.0 + k_r)))
    re = nu + sigma * rng.standard_normal(size)
    im = sigma * rng.standard_normal(size)
    return np.hypot(re, im)


def sample_envelope_one_block(d, rng: np.random.Generator, size=None):
    """sample_envelope's draw as first built: a Rice law squares one
    standard_normal((2, *size)) block and adds its halves; a single-term
    law divides its Gamma draw out of place; a law built by hand picks
    component indices and draws gamma(shapes[index], 1/rate).
    sample_envelope must give these bits and leave the generator here."""
    if d.rice_k is not None:
        dims = () if size is None else tuple(np.atleast_1d(size))
        z = rng.standard_normal((2, *dims))
        z[0] += math.sqrt(2.0 * d.rice_k)
        z *= z
        sq = z[0]
        sq += z[1]
        sq /= 2.0 * d.rate
    elif len(d.terms) == 1:
        b = d.terms[0][1]
        g = rng.standard_exponential(size) if b == 1.0 else rng.standard_gamma(b, size)
        sq = g / d.rate
    else:
        idx = rng.choice(len(d.weights), size=size, p=d.weights)
        sq = rng.gamma(shape=d.shapes[idx], scale=1.0 / d.rate)
    return np.sqrt(sq) if np.ndim(sq) else float(np.sqrt(sq))


# --- misc helpers -------------------------------------------------------------


def make_kg(k_a: float, m_a: float, omega: float = 1.0) -> KGParams:
    """Generalized-K law with the given shapes; only (k_a, m_a, xi) drive
    the distributional code paths."""
    xi = math.sqrt(k_a * m_a / omega)
    return KGParams(k_a=k_a, m_a=m_a, xi=xi, omega_a=omega, n_elements=1,
                    moments2_4_6=(omega, 0.0, 0.0))


def make_stats(b_o: float, zeta: float) -> MisalignmentStats:
    """Synthetic misalignment statistics; only (b_o, zeta) drive the
    distributional code paths, the intermediates are bookkeeping."""
    return MisalignmentStats(
        b_o=b_o, zeta=zeta, w_l2=0.1, rho_l2=1.0, v_min=1.0, v_max=0.7,
        rho_min=1.0, rho_max=2.0, k_min=2.0, k_max=3.0, k_m=2.5,
    )


# --- shared scenarios --------------------------------------------------------

# sigma_p sweep whose first point has no jitter at all (aligned path) and
# the rest misaligned, with impaired hardware and a Monte Carlo block
MIXED_SIGMA_P_SWEEP = """
fading {
  hop1 { kind = nakagami  m = 1.0 }
  hop2 { kind = rice  k_r_db = 5.0  n_terms = 20 }
}
ris { n_elements = 4 }
geometry {
  l2 = 0.105  w_o = 1e-3  f = 100e9  cn2 = 2.3e-9  alpha = 0.1
  theta = 5.497787143782138  phi = 2.0943951023931953
  sigma_p = 0.05  sigma_o = 0.0  d_x = 0.0
}
hardware { kappa_s = 0.1  kappa_d = 0.1 }
link { gamma_db = 8.0  gamma_th = 1.0 }
sweep { variable = sigma_p  start = 0.0  stop = 0.15  points = 4 }
mc { samples = 30000  seed = 11 }
"""
