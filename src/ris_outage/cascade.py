"""Statistics of the RIS cascade sum A = sum_i |h_i||g_i| and of the
end-to-end gain A_e2e = h_g * A.

A is moment-matched (orders 2, 4, 6) to a generalized-K law; its CDF and
the CDF of A_e2e each have two independent evaluation routes: a
hypergeometric series expansion and direct quadrature.  The series are
fast and precise in the deep lower tail; the quadrature is
cancellation-free everywhere and acts as the ground-truth oracle.  Both
routes must agree wherever both apply, and the test suite enforces that.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.integrate as si
import scipy.special as sc

from .errors import DomainError, MomentMatchFailure, NoConvergence
from .fading import MGDistribution, product_moment
from .geometry import MisalignmentStats
from .special import DEFAULT_SERIES_CONTROL, SeriesControl, _hyp1f2_diag

__all__ = [
    "KGParams",
    "sum_moments",
    "moment_match",
    "pdf_A",
    "cdf_A",
    "pdf_Ae2e",
    "cdf_Ae2e",
    "cdf_Ae2e_quadrature",
]

# series is trusted only while intermediate/partial magnitudes stay within
# this factor of the result (~6 digits of cancellation headroom in doubles)
_COND_LIMIT = 1e6
# |k - m| (or zeta/2 - s) closer than this to an integer routes to the
# quadrature path
_DEGENERACY_BAND = 1e-3
# the series is not tried beyond this argument.  Below it the cond check
# decides the route; for the bundled laws cond passes _COND_LIMIT at
# z ~ 22-92, so the limit only caps the work spent on a series that check
# would reject.  Large shapes stay well conditioned past it (cond < 40 up
# to z = 400 at (k_a, m_a) = (228.3, 64.1)) and take quadrature there.
_SERIES_Z_LIMIT = 400.0
_QUAD_TARGET = 1e-9


@dataclass(frozen=True)
class KGParams:
    """Generalized-K surrogate for the cascade sum.

    k_a >= m_a are the matched shape parameters, xi the scale,
    omega_a = E[A^2], and moments2_4_6 the matched raw moments.
    """

    k_a: float
    m_a: float
    xi: float
    omega_a: float
    n_elements: int
    moments2_4_6: tuple[float, float, float]

    def __post_init__(self):
        if not (self.k_a > 0 and self.m_a > 0 and self.xi > 0):
            raise DomainError("KGParams requires positive k_a, m_a, xi")
        expected = math.sqrt(self.k_a * self.m_a / self.omega_a)
        if abs(self.xi - expected) > 1e-12 * expected:
            raise DomainError("xi is inconsistent with sqrt(k_a m_a / omega_a)")
        if abs(self.omega_a - self.moments2_4_6[0]) > 1e-12 * self.omega_a:
            raise DomainError("omega_a must equal the matched second moment")


def sum_moments(
    d1: MGDistribution, d2: MGDistribution, n_elements: int, order: int
) -> float:
    """Raw moment E[A^order] of the sum of n_elements i.i.d. envelope
    products, by iterated binomial convolution of the single-product
    moment vector (identical to the nested multinomial expansion but
    O(N order^2))."""
    if n_elements < 1:
        raise DomainError(f"n_elements must be >= 1, got {n_elements}")
    if order < 0:
        raise DomainError(f"order must be >= 0, got {order}")
    return _moment_vector(d1, d2, n_elements, order)[order]


def _moment_vector(
    d1: MGDistribution, d2: MGDistribution, n_elements: int, max_order: int
) -> np.ndarray:
    mu = np.array([product_moment(d1, d2, j) for j in range(max_order + 1)])
    cur = mu.copy()
    for _ in range(n_elements - 1):
        nxt = np.empty_like(cur)
        for order in range(max_order + 1):
            nxt[order] = sum(
                math.comb(order, j) * cur[j] * mu[order - j] for j in range(order + 1)
            )
        cur = nxt
    if not np.all(np.isfinite(cur)):
        raise OverflowError("sum moments exceed float range")
    return cur


def moment_match(
    d1: MGDistribution, d2: MGDistribution, n_elements: int
) -> KGParams:
    """Match E[A^2], E[A^4], E[A^6] to a generalized-K law.

    The two shape parameters are the roots of a_A t^2 + b_A t + c_A with
    the moment-polynomial coefficients; roots are ordered k_a >= m_a.
    Raises MomentMatchFailure when the discriminant is negative or a root
    is non-positive (no valid surrogate for these moments).  A discriminant
    within 1e-12 b_A^2 below zero is rounding around a double root (two
    identical Nakagami hops at N = 1, where k_a = m_a = m is exact) and is
    taken as zero.  Identical Nakagami hops at N >= 2 have a genuinely
    negative discriminant (0.17-3.7% of b_A^2 for m in 1..5) and still
    raise.
    """
    mu = _moment_vector(d1, d2, n_elements, 6)
    mu2, mu4, mu6 = float(mu[2]), float(mu[4]), float(mu[6])
    a_c = mu6 * mu2 + mu2**2 * mu4 - 2.0 * mu4**2
    b_c = mu6 * mu2 - 4.0 * mu4**2 + 3.0 * mu2**2 * mu4
    c_c = 2.0 * mu2**2 * mu4
    if a_c == 0.0:
        raise MomentMatchFailure("degenerate moment polynomial (a_A = 0)")
    disc = b_c * b_c - 4.0 * a_c * c_c
    if 0.0 > disc >= -1e-12 * b_c * b_c:
        disc = 0.0
    if disc < 0.0:
        raise MomentMatchFailure(f"negative discriminant {disc!r}")
    # numerically stable quadratic roots
    q = -0.5 * (b_c + math.copysign(math.sqrt(disc), b_c))
    roots = sorted((q / a_c, c_c / q), reverse=True)
    k_a, m_a = roots
    if m_a <= 0.0 or not all(map(math.isfinite, roots)):
        raise MomentMatchFailure(f"non-positive shape root in {roots}")
    xi = math.sqrt(k_a * m_a / mu2)
    return KGParams(
        k_a=k_a,
        m_a=m_a,
        xi=xi,
        omega_a=mu2,
        n_elements=n_elements,
        moments2_4_6=(mu2, mu4, mu6),
    )


# ---------------------------------------------------------------------------
# generalized-K distribution of A
#
# A = sqrt(U V) / xi with U ~ Gamma(k_a), V ~ Gamma(m_a): this identity
# gives the cancellation-free quadrature route
#   F_A(x) = E_V[ P(k_a, xi^2 x^2 / V) ]
# (P the regularized lower incomplete gamma), i.e. the integral of pdf_A
# reorganized through the Gamma-mixture representation.
# ---------------------------------------------------------------------------

_gauss_legendre = functools.lru_cache(np.polynomial.legendre.leggauss)
_GL_NODES, _GL_WEIGHTS = _gauss_legendre(24)
# tail mass, relative to the value, that a fixed rule may leave out of
# its range (bounded in closed form, never estimated)
_TAIL = 1e-17
# inner V-panels per unit of log v, sqrt(k_a + m_a) / _PANEL_SCALE[fine]:
# the panel is narrower the sharper the Gamma factors (their log has
# standard deviation ~ 1/sqrt(shape)); the coarse rule reaches ~1e-10
# relative accuracy on F_A, the fine one ~1e-13
_PANEL_SCALE = (9.0, 6.5)


def _panels(lo, hi, n_panels) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """24-point Gauss-Legendre rule in log v on n_panels[i] geometric
    panels spanning [lo[i], hi[i]], for every row i.

    Returns the flat nodes, their weights (for dv) and their row index.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    log_lo = np.log(lo)
    log_hi = np.log(np.broadcast_to(np.asarray(hi, dtype=float), lo.shape))
    n = np.broadcast_to(np.asarray(n_panels, dtype=np.int64), lo.shape)
    row = np.repeat(np.arange(lo.size), n)
    first = np.cumsum(n) - n
    j = np.arange(row.size) - first[row]
    half = (0.5 * (log_hi - log_lo) / n)[row]
    mid = log_lo[row] + (2 * j + 1) * half
    nodes = np.exp(mid[:, None] + half[:, None] * _GL_NODES)
    weights = half[:, None] * _GL_WEIGHTS * nodes
    return nodes.ravel(), weights.ravel(), np.repeat(row, _GL_NODES.size)


def _x_upper(p: KGParams, q: float = 1e-18) -> float:
    """x beyond which 1 - F_A(x) < 2q (union bound on the Gamma factors)."""
    return math.sqrt(sc.gammainccinv(p.k_a, q) * sc.gammainccinv(p.m_a, q)) / p.xi


def _panels_per_log(p: KGParams, fine: bool) -> float:
    return max(0.15, math.sqrt(p.k_a + p.m_a) / _PANEL_SCALE[fine])


def _cdf_A_quad_value(p: KGParams, x, per_log: float) -> np.ndarray:
    """F_A at every abscissa of x > 0 as E_V[P(k_a, s/V)], s = (xi x)^2.

    Below eps = s / Q_k (Q_k the 1e-18 upper quantile of Gamma(k_a)) the
    inner P is 1 - O(1e-18), so that head is P(m_a, eps) in closed form.
    Above min(Q_m, v_cut) the V-integral is dropped: with P(k, y) <=
    y^k / Gamma(k+1) and F_A >= P(m_a, s/k_a) / 2, the part beyond v_cut
    is below _TAIL F_A.  Each row gets ceil(per_log log(top/eps)) panels.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    k, m = p.k_a, p.m_a
    s = (p.xi * x) ** 2
    eps = s / sc.gammainccinv(k, 1e-18)
    top = np.full_like(s, sc.gammainccinv(m, 1e-18))
    if k - m > 1e-3:  # the bound divides by k_a - m_a
        log_cut = np.log(s) + (
            s / k - math.log(0.5 * _TAIL) + m * math.log(k) - math.log(m)
            - math.lgamma(k + 1.0) - math.log(k - m)
        ) / (k - m)
        top = np.minimum(top, np.exp(np.minimum(log_cut, 700.0)))
    out = sc.gammainc(m, eps)  # the head
    open_ = np.flatnonzero(top > eps)
    if open_.size:
        lo, hi = eps[open_], top[open_]
        n = np.maximum(np.ceil(per_log * np.log(hi / lo)), 1.0)
        v, w, row = _panels(lo, hi, n)
        dens = np.exp((m - 1.0) * np.log(v) - v - sc.gammaln(m))
        vals = w * sc.gammainc(k, s[open_][row] / v) * dens
        out[open_] += np.bincount(row, weights=vals, minlength=open_.size)
    return np.minimum(out, 1.0)


def _cdf_A_quadrature(p: KGParams, x: float) -> float:
    """Quadrature route for F_A, accurate in relative terms deep into both
    tails.  The fine rule is checked against the coarse one; on
    disagreement the adaptive integrator takes over."""
    if x <= 0.0:
        return 0.0
    if x >= _x_upper(p):
        return 1.0
    coarse = float(_cdf_A_quad_value(p, x, _panels_per_log(p, fine=False))[0])
    fine = float(_cdf_A_quad_value(p, x, _panels_per_log(p, fine=True))[0])
    if abs(fine - coarse) <= max(1e-13, 5e-11 * fine):
        return fine
    s = (p.xi * x) ** 2
    eps = s / sc.gammainccinv(p.k_a, 1e-18)
    hi = sc.gammainccinv(p.m_a, 1e-18)
    head = float(sc.gammainc(p.m_a, eps))

    def integrand(v):
        return sc.gammainc(p.k_a, s / v) * math.exp(
            (p.m_a - 1.0) * math.log(v) - v - sc.gammaln(p.m_a)
        )

    pts = sorted({min(max(s / p.k_a, eps * 1.01), hi * 0.99), min(p.m_a, hi * 0.99)})
    val, err, *rest = si.quad(
        integrand, eps, hi, points=pts, epsabs=0.0, epsrel=1e-12, limit=800,
        full_output=1,
    )
    if err > max(_QUAD_TARGET, 1e-9 * abs(val)):
        raise NoConvergence(f"cdf_A quadrature error estimate {err:g} at x={x}")
    return min(head + val, 1.0)


def _signed_logsum(terms: list[tuple[float, float]]) -> tuple[float, float]:
    """Sum of sign*exp(log) contributions in log space -> (sign, log|sum|)."""
    finite = [(s, l) for s, l in terms if s != 0.0 and l != -math.inf]
    if not finite:
        return 0.0, -math.inf
    lmax = max(l for _, l in finite)
    acc = sum(s * math.exp(l - lmax) for s, l in finite)
    if acc == 0.0:
        return 0.0, -math.inf
    return math.copysign(1.0, acc), lmax + math.log(abs(acc))


def _expansion_terms(
    p: KGParams, u: float, zeta: float | None = None
) -> tuple[tuple[float, float] | None, list[tuple[float, float, float, float]]]:
    """Coefficients of the one expansion behind F_A, F_{A_e2e}, the
    high-SNR OP and the OP floor, at the scaled argument u = x / B_o.

    Returns (t0, branches).  branches holds (s, o, sign, log|C_s u^(2s)|)
    for the shape s in (m_a, k_a), o the other shape, with
      C_s = Gamma(o-s) xi^(2s) / (s Gamma(k) Gamma(m)),
    the reflection form of the csc-coefficient expansion.  t0 is the
    (sign, log|T0|) of the x^zeta term of the misaligned expansion,
      T0 = (xi u)^zeta Gamma(k-zeta/2) Gamma(m-zeta/2) / (Gamma(k) Gamma(m)),
    or None when zeta is None (aligned beam).
    """
    lg_norm = sc.gammaln(p.k_a) + sc.gammaln(p.m_a)
    log_xu = math.log(p.xi * u)
    branches = []
    for s, o in ((p.m_a, p.k_a), (p.k_a, p.m_a)):
        lc = float(sc.gammaln(o - s)) + 2.0 * s * log_xu - math.log(s) - lg_norm
        branches.append((s, o, float(sc.gammasgn(o - s)), lc))
    if zeta is None:
        return None, branches
    half = zeta / 2.0
    t0 = (
        float(sc.gammasgn(p.k_a - half) * sc.gammasgn(p.m_a - half)),
        zeta * log_xu
        + float(sc.gammaln(p.k_a - half))
        + float(sc.gammaln(p.m_a - half))
        - lg_norm,
    )
    return t0, branches


def _series_result(
    contributions: list[tuple[float, float]], log_peak: float
) -> tuple[float, float, float]:
    """(sign, log|sum|, cond) of a series whose largest intermediate or
    partial magnitude is exp(log_peak)."""
    sign_total, log_total = _signed_logsum(contributions)
    if sign_total == 0.0:
        return 0.0, -math.inf, math.inf
    return sign_total, log_total, math.exp(min(log_peak - log_total, 700.0))


def _log_cdf_A_series(
    p: KGParams, x: float, ctl: SeriesControl = DEFAULT_SERIES_CONTROL
) -> tuple[float, float, float]:
    """Two-branch series for F_A in log space,
      F_A(x) = sum_s C_s x^(2s) 1F2(s; 1+s, 1+s-o; xi^2 x^2),
    with C_s from _expansion_terms.  Returns (sign, log|F|, cond) where
    cond bounds the cancellation amplification.
    """
    z = (p.xi * x) ** 2
    _, branches = _expansion_terms(p, x)
    contributions: list[tuple[float, float]] = []
    log_peak = -math.inf
    for s, o, sign_c, lc in branches:
        f2, peak = _hyp1f2_diag(s, 1.0 + s, 1.0 + s - o, z, ctl)
        if f2 != 0.0:
            contributions.append(
                (sign_c * math.copysign(1.0, f2), lc + math.log(abs(f2)))
            )
        log_peak = max(log_peak, lc + math.log(peak))
    return _series_result(contributions, log_peak)


def _is_degenerate_order(p: KGParams) -> bool:
    d = p.k_a - p.m_a
    return abs(d - round(d)) <= _DEGENERACY_BAND


def _zeta_pole_distance(p: KGParams, zeta: float) -> float:
    """Distance of zeta/2 from the pole lattice {s + n, n >= 0} of the
    series expansion, for s in {k_a, m_a}."""
    half = zeta / 2.0
    dist = math.inf
    for s in (p.k_a, p.m_a):
        delta = half - s
        if delta < 0.0:
            dist = min(dist, -delta)
        else:
            dist = min(dist, abs(delta - round(delta)))
    return dist


def _series_defined(p: KGParams, zeta: float | None = None) -> bool:
    """Whether the series expansion exists: k_a - m_a off the integers
    and, under misalignment, zeta/2 off the pole lattice."""
    return not _is_degenerate_order(p) and (
        zeta is None or _zeta_pole_distance(p, zeta) > _DEGENERACY_BAND
    )


def _log_cdf(p: KGParams, mis: MisalignmentStats | None, x: float) -> float:
    """log F(x) of A (mis None) or of A_e2e = h_g A: the one routing
    decision between the series and the quadrature route.

    The series is tried where it is defined and its argument
    (xi x / B_o)^2 is at most _SERIES_Z_LIMIT, and kept only when it is a
    probability with cond below _COND_LIMIT; otherwise, and on
    NoConvergence, the quadrature twin gives the value.
    """
    if x <= 0.0:
        return -math.inf
    b_o = 1.0 if mis is None else mis.b_o
    if x >= b_o * _x_upper(p):
        return 0.0
    zeta = None if mis is None else mis.zeta
    if _series_defined(p, zeta) and (p.xi * x / b_o) ** 2 <= _SERIES_Z_LIMIT:
        try:
            sign, logmag, cond = (
                _log_cdf_A_series(p, x) if mis is None else _cdf_Ae2e_series(p, mis, x)
            )
            if sign > 0.0 and logmag <= 0.0 and cond < _COND_LIMIT:
                return logmag
        except NoConvergence:
            pass
    val = _cdf_A_quadrature(p, x) if mis is None else cdf_Ae2e_quadrature(p, mis, x)
    return math.log(val) if val > 0.0 else -math.inf


def cdf_A(p: KGParams, x: float) -> float:
    """CDF of the cascade sum surrogate.

    Series route when k_a - m_a is safely non-integer and the expansion is
    well conditioned; quadrature otherwise.
    """
    if x < 0:
        raise DomainError(f"cdf_A requires x >= 0, got {x}")
    return math.exp(_log_cdf(p, None, x))


def log_cdf_A(p: KGParams, x: float) -> float:
    """log F_A(x), routed like cdf_A; the series route keeps it finite in
    the deep tail where F underflows (used for diversity slopes)."""
    return _log_cdf(p, None, x)


def pdf_A(p: KGParams, x) -> np.ndarray | float:
    """Density of the surrogate,
    4 xi^(k+m) / (Gamma(k) Gamma(m)) x^(k+m-1) K_(k-m)(2 xi x).

    Assembled in log space through the scaled Bessel function; parameter
    corners that overflow the Bessel evaluation fall back to quadrature of
    the Gamma-mixture representation.
    """
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr <= 0):
        raise DomainError("pdf_A requires x > 0")
    y = 2.0 * p.xi * x_arr
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        kve = sc.kve(p.k_a - p.m_a, y)
        log_pdf = (
            math.log(4.0)
            + (p.k_a + p.m_a) * math.log(p.xi)
            - sc.gammaln(p.k_a)
            - sc.gammaln(p.m_a)
            + (p.k_a + p.m_a - 1.0) * np.log(x_arr)
            + np.log(kve)
            - y
        )
        out = np.exp(log_pdf)
    bad = ~np.isfinite(out)
    if np.any(bad):
        out = np.array(out, ndmin=1)
        flat_bad = np.atleast_1d(bad)
        out[flat_bad] = _pdf_A_quadrature(p, np.atleast_1d(x_arr)[flat_bad])
        out = out.reshape(np.shape(bad))
    return out if out.ndim else float(out)


def _pdf_A_quadrature(p: KGParams, x: np.ndarray) -> np.ndarray:
    """f_A(x) = E_V[ gamma-density(k, s/V) * 2 xi^2 x / V ], V ~ Gamma(m),
    at every abscissa of x."""
    s = (p.xi * x) ** 2
    d = p.k_a - p.m_a
    # stationary point of the log, the positive root of v^2 + d v - s,
    # in the form that does not cancel to 0 at small s
    root = np.sqrt(d * d + 4.0 * s)
    v_star = 2.0 * s / (d + root) if d > 0.0 else 0.5 * (root - d)
    lo = np.minimum(s / sc.gammainccinv(p.k_a, 1e-20), v_star) / 8.0
    hi = np.maximum(sc.gammainccinv(p.m_a, 1e-20), v_star * 8.0)
    v, w, row = _panels(lo, hi, 48)
    log_f = (
        (p.m_a - 1.0) * np.log(v)
        - v
        - sc.gammaln(p.m_a)
        + (p.k_a - 1.0) * (np.log(s[row]) - np.log(v))
        - s[row] / v
        - sc.gammaln(p.k_a)
        + np.log(2.0 * p.xi**2 * x[row])
        - np.log(v)
    )
    return np.bincount(row, weights=w * np.exp(log_f), minlength=x.size)


# ---------------------------------------------------------------------------
# end-to-end gain A_e2e = h_g * A
# ---------------------------------------------------------------------------


def _cdf_Ae2e_series(
    p: KGParams,
    s: MisalignmentStats,
    x: float,
    ctl: SeriesControl = DEFAULT_SERIES_CONTROL,
) -> tuple[float, float, float]:
    """Five-term series for F_{A_e2e} in log space -> (sign, log|F|, cond).

    Derived by integrating the two-branch expansion of F_A term by term
    against the geometric-loss density (each term is a Beta-type
    integral):

      F(x) = T0 + sum_s C_s (x/B_o)^(2s) [ 1F2(s; 1+s, 1+s-o; w)
                  - (2s/(2s-zeta)) 1F2(s-zeta/2; 1+s-o, 1+s-zeta/2; w) ]

    with w = (xi x / B_o)^2, and T0 (the x^zeta term) and C_s from
    _expansion_terms.  Dropping T0 breaks agreement with the defining
    integral.
    """
    zeta = s.zeta
    u = x / s.b_o
    w = (p.xi * u) ** 2
    t0, branches = _expansion_terms(p, u, zeta)
    contributions = [t0]
    log_peak = t0[1]
    for sb, ob, sign_c, lc in branches:
        f_main, pk_main = _hyp1f2_diag(sb, 1.0 + sb, 1.0 + sb - ob, w, ctl)
        f_shift, pk_shift = _hyp1f2_diag(
            sb - zeta / 2.0, 1.0 + sb - ob, 1.0 + sb - zeta / 2.0, w, ctl
        )
        ratio = 2.0 * sb / (2.0 * sb - zeta)
        combined = f_main - ratio * f_shift
        peak_here = max(pk_main, abs(ratio) * pk_shift, abs(combined))
        log_peak = max(log_peak, lc + math.log(peak_here))
        if combined != 0.0:
            contributions.append(
                (sign_c * math.copysign(1.0, combined), lc + math.log(abs(combined)))
            )
    return _series_result(contributions, log_peak)


def cdf_Ae2e(p: KGParams, s: MisalignmentStats, x: float) -> float:
    """CDF of the end-to-end gain h_g * A.

    Series route when k_a - m_a is safely non-integer and zeta/2 stays
    clear of the pole lattice anchored at k_a and m_a; quadrature of the
    defining integral otherwise (and whenever the series is ill
    conditioned).
    """
    if x < 0:
        raise DomainError(f"cdf_Ae2e requires x >= 0, got {x}")
    return math.exp(_log_cdf(p, s, x))


# The end-to-end twins integrate over L = log of the inner argument x/y.
# With t = (y/B_o)^zeta uniform on (0, 1], t = exp(zeta (L_c - L)) for
# L_c = log(x/B_o), so both become integrals against the weight
# zeta exp(zeta (L_c - L)) dL on [L_c, L_top]:
#   F(x) = t_top + int F_A(e^L) weight dL,   t_top = exp(zeta (L_c - L_top))
#   f(x) = (1/x) int f_A(e^L) e^L weight dL.
# The fixed rule puts Gauss-Legendre segments on [L_c, L_top] graded
# geometrically away from L_c (where the weight falls on the scale
# 1/zeta) and from the mean of log A (the knee of F_A, on the scale of
# the standard deviation of log A).  Nodes per segment of the coarse and
# of the fine rule (whose inner rules are the coarse and fine V-panels):
_E2E_NODES = (12, 16)
# segments start at this many weight scales 1/zeta and knee scales
_E2E_WEIGHT_STEP = 4.0
_E2E_KNEE_STEP = 1.0
# L_top is at most this many weight scales above max(L_c, mean log A):
# beyond it the weight has fallen by e^-50, and the integrand near the
# lower of the two carries at least (1 - 1/e)/e of its weight there
# (log A has a log-concave density, so P(log A <= its mean) >= 1/e).
# Both integrands have log-slope <= 2 m_a - zeta, so for zeta >= 4 m_a
# everything beyond L_c + _E2E_MARGIN / (zeta - 2 m_a), head included, is
# below e^-50 zeta / (zeta - 2 m_a) <= 2e-22 of the value near L_c.
_E2E_MARGIN = 50.0


def _e2e_nodes(
    p: KGParams, s: MisalignmentStats, x: float, n_nodes: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """(z = e^L nodes, weights including zeta exp(zeta (L_c - L)), t_top)
    of the outer rule; see the comment above _E2E_NODES."""
    zeta = s.zeta
    l_c = math.log(x / s.b_o)
    mean = 0.5 * float(sc.digamma(p.k_a) + sc.digamma(p.m_a)) - math.log(p.xi)
    std = 0.5 * math.sqrt(float(sc.polygamma(1, p.k_a) + sc.polygamma(1, p.m_a)))
    l_top = min(math.log(_x_upper(p)), max(l_c, mean) + _E2E_MARGIN / zeta)
    t_top = math.exp(zeta * (l_c - l_top))
    if zeta >= 4.0 * p.m_a and l_c + _E2E_MARGIN / (zeta - 2.0 * p.m_a) < l_top:
        l_top, t_top = l_c + _E2E_MARGIN / (zeta - 2.0 * p.m_a), 0.0
    centres = [(l_c, _E2E_WEIGHT_STEP / zeta)]
    if mean < l_top:
        centres.append((mean, _E2E_KNEE_STEP * std))
    edges = [l_c, l_top]
    for centre, step in centres:
        edges.append(centre)
        while centre - step > l_c or centre + step < l_top:
            edges += [centre - step, centre + step]
            step *= 2.0
    edges = np.unique(np.clip(edges, l_c, l_top))
    g, gw = _gauss_legendre(n_nodes)
    half = 0.5 * np.diff(edges)[:, None]
    ell = (0.5 * (edges[1:] + edges[:-1]))[:, None] + half * g
    weights = (half * gw).ravel() * zeta * np.exp(zeta * (l_c - ell.ravel()))
    return np.exp(ell.ravel()), weights, t_top


def _cdf_Ae2e_rule(p: KGParams, s: MisalignmentStats, x: float, fine: bool) -> float:
    """The fixed tensor-product rule for F_{A_e2e}(x): the outer rule over
    L times the inner V-integral of F_A at every outer node, in one call."""
    z, w, t_top = _e2e_nodes(p, s, x, _E2E_NODES[fine])
    inner = _cdf_A_quad_value(p, z, _panels_per_log(p, fine))
    return t_top + float(np.dot(w, inner))


def _pdf_Ae2e_rule(p: KGParams, s: MisalignmentStats, x: float, fine: bool) -> float:
    """The fixed rule for f_{A_e2e}(x): one vectorised pdf_A call."""
    z, w, _ = _e2e_nodes(p, s, x, _E2E_NODES[fine])
    return float(np.dot(w, pdf_A(p, z) * z)) / x


def _rules_agree(coarse: float, fine: float) -> bool:
    """Self-check of a fixed rule: the fine value is kept when the coarse
    one agrees with it."""
    return abs(fine - coarse) <= max(1e-13, 1e-9 * abs(fine))


def cdf_Ae2e_quadrature(p: KGParams, s: MisalignmentStats, x: float) -> float:
    """Defining integral F(x) = int_0^{B_o} F_A(x/y) f_{h_g}(y) dy.

    Substituting y = B_o t^(1/zeta) absorbs the power-law weight exactly
    (t is the CDF of the loss, uniform on (0,1]).  A fixed tensor-product
    Gauss-Legendre rule over (log(x/y), V) gives the value when its coarse
    and fine versions agree within max(1e-13, 1e-9 F); otherwise the
    adaptive integrator over u = log t does (absolute error estimate at
    most max(1e-9, 1e-8 F), else NoConvergence).
    """
    if x < 0:
        raise DomainError(f"cdf_Ae2e_quadrature requires x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    if x >= s.b_o * _x_upper(p):
        return 1.0
    coarse = _cdf_Ae2e_rule(p, s, x, fine=False)
    fine = _cdf_Ae2e_rule(p, s, x, fine=True)
    if _rules_agree(coarse, fine):
        return min(max(fine, 0.0), 1.0)
    return _cdf_Ae2e_adaptive(p, s, x)


def _cdf_Ae2e_adaptive(p: KGParams, s: MisalignmentStats, x: float) -> float:
    """Adaptive fallback of cdf_Ae2e_quadrature, for 0 < x < B_o x_up.

    Integrating over u = log t gives the knee of the inner CDF an O(1)
    width instead of a spike crammed against t = 0, which a subdivision
    rule can miss.  Below the saturation knee the inner CDF is 1 to
    within 1e-18 and that head integrates in closed form.
    """
    zeta, b_o = s.zeta, s.b_o
    x_up = _x_upper(p)

    # t below which the inner CDF saturates at 1 (within 1e-18)
    log_t_sat = zeta * (math.log(x) - math.log(b_o * x_up))
    u_lo = max(log_t_sat, -740.0)
    head = math.exp(u_lo) if log_t_sat > -740.0 else 0.0

    def integrand(u: float) -> float:
        t = math.exp(u)
        return cdf_A(p, x / (b_o * t ** (1.0 / zeta))) * t

    # ladder of breakpoints around the bulk knee (F_A ~ 1/2) of the inner CDF
    u_bulk = zeta * (math.log(x) - math.log(b_o * math.sqrt(p.omega_a)))
    pts = sorted(
        u_bulk + off
        for off in (-4.0, -2.0, 0.0, 2.0, 5.0, 10.0)
        if u_lo < u_bulk + off < 0.0
    )
    val, err, *rest = si.quad(
        integrand, u_lo, 0.0, points=pts or None,
        epsabs=1e-13, epsrel=1e-11, limit=500, full_output=1,
    )
    val += head
    if err > max(_QUAD_TARGET, 1e-8 * abs(val)):
        raise NoConvergence(
            f"cdf_Ae2e quadrature error estimate {err:g} at x={x}"
        )
    return min(max(val, 0.0), 1.0)


def pdf_Ae2e(p: KGParams, s: MisalignmentStats, x: float) -> float:
    """Density of the end-to-end gain, by differentiating the defining
    integral: f(x) = (zeta/x) int_{x/B_o}^inf f_A(v) (v B_o / x)^(-zeta) dv.

    The power factor is bounded by 1 on the integration range, so the
    integrand is smooth and overflow-free.  Up to zeta = 500 the fixed
    rule of cdf_Ae2e_quadrature over log v gives the value when its
    coarse and fine versions agree within max(1e-13, 1e-9 f), and the
    adaptive integrator over v otherwise.  Very large zeta concentrates
    the loss at B_o and the integral narrows onto its lower endpoint;
    that regime uses the equivalent t-substituted form instead.
    """
    if x <= 0:
        raise DomainError(f"pdf_Ae2e requires x > 0, got {x}")
    zeta, b_o = s.zeta, s.b_o
    x_up = _x_upper(p)
    if x >= b_o * x_up:
        return 0.0
    if zeta <= 500.0:
        coarse = _pdf_Ae2e_rule(p, s, x, fine=False)
        fine = _pdf_Ae2e_rule(p, s, x, fine=True)
        if _rules_agree(coarse, fine):
            return max(fine, 0.0)
        return _pdf_Ae2e_adaptive(p, s, x)

    def integrand_t(t: float) -> float:
        y = b_o * t ** (1.0 / zeta)
        return float(pdf_A(p, x / y)) / y

    val, err, *rest = si.quad(
        integrand_t, 0.0, 1.0, epsabs=1e-13, epsrel=1e-10, limit=400,
        full_output=1,
    )
    if not math.isfinite(val):
        raise NoConvergence(f"pdf_Ae2e quadrature failed at x={x}")
    return max(val, 0.0)


def _pdf_Ae2e_adaptive(p: KGParams, s: MisalignmentStats, x: float) -> float:
    """Adaptive fallback of pdf_Ae2e for zeta <= 500 and 0 < x < B_o x_up."""
    zeta, b_o = s.zeta, s.b_o
    x_up = _x_upper(p)
    lo = x / b_o

    def integrand(v: float) -> float:
        return float(pdf_A(p, v)) * math.exp(-zeta * math.log(v * b_o / x))

    pts = [c for c in (math.sqrt(p.omega_a), 2 * lo) if lo < c < x_up]
    val, err, *rest = si.quad(
        integrand, lo, x_up, points=sorted(set(pts)) or None,
        epsabs=1e-13, epsrel=1e-10, limit=400, full_output=1,
    )
    val *= zeta / x
    if not math.isfinite(val):
        raise NoConvergence(f"pdf_Ae2e quadrature failed at x={x}")
    return max(val, 0.0)
