"""Statistics of the RIS cascade sum A = sum_i |h_i||g_i| and of the
end-to-end gain A_e2e = h_g * A.

A is moment-matched (orders 2, 4, 6) to a generalized-K law.  Its density
is the closed form, with K_(k_a-m_a) from scipy's scaled Bessel function
or, where that overflows, from the Bessel recurrence.  The CDF of A and
the CDF of A_e2e each have two independent evaluation routes: a
hypergeometric series expansion and direct quadrature.  The series are
fast and precise in the deep lower tail; the quadrature is a fixed
Gauss-Legendre rule, cancellation-free everywhere, that checks itself
against a coarser copy and raises NoConvergence when the two disagree.
One router, _cdf, picks the route of each point and returns the value
that route priced, its log and the route.  Both routes must agree
wherever both apply, and the test suite enforces that against each
other and against extended-precision references.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.special as sc

from .errors import (
    DegenerateParameters, DomainError, MomentMatchFailure, NoConvergence, OverflowGuard,
)
from .fading import MGDistribution, product_moment
from .geometry import MisalignmentStats
from .special import _hyp1f2_diag, _log_gen_k

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


# moment_match refuses larger arrays: k_a - m_a grows about as N, and so do
# the steps of the closed forms' Bessel recurrence.  cdf_Ae2e costs about
# 0.13 s a point at N = 4096, 0.5 s at 16384, and fails at 65536.
_MAX_ELEMENTS = 4096


def _sum_cumulants(
    d1: MGDistribution, d2: MGDistribution, n_elements: int, max_order: int
) -> list[float]:
    """kappa_0..kappa_max_order of A (kappa_0 = 0): N times the cumulants
    c_j of one product, from its moments normalized by their mass mu_0."""
    if not (isinstance(n_elements, numbers.Integral) and n_elements >= 1):
        raise DomainError(f"n_elements must be an integer >= 1, got {n_elements!r}")
    mu = product_moment(d1, d2, np.arange(max_order + 1))
    m = (mu / mu[0]).tolist()
    c = [0.0]
    for o in range(1, max_order + 1):
        c.append(m[o] - sum(math.comb(o - 1, j - 1) * c[j] * m[o - j] for j in range(1, o)))
    return [n_elements * cj for cj in c]


def sum_moments(
    d1: MGDistribution, d2: MGDistribution, n_elements: int, order: int
) -> float:
    """Raw moment E[A^order] of the sum of n_elements i.i.d. envelope
    products, from its cumulants kappa_j by the moment-cumulant recursion
    mu_o = sum_j C(o-1, j-1) kappa_j mu_(o-j), with mu_0 = 1."""
    if not (isinstance(order, numbers.Integral) and order >= 0):
        raise DomainError(f"order must be an integer >= 0, got {order!r}")
    kappa = _sum_cumulants(d1, d2, n_elements, order)
    mu = [1.0]
    for o in range(1, order + 1):
        mu.append(sum(math.comb(o - 1, j - 1) * kappa[j] * mu[o - j] for j in range(1, o + 1)))
    if not all(0.0 < v < math.inf for v in mu):
        raise OverflowGuard(f"the moments of the {n_elements}-element sum leave float range")
    return mu[order]


def moment_match(
    d1: MGDistribution, d2: MGDistribution, n_elements: int
) -> KGParams:
    """Match E[A^2], E[A^4], E[A^6] to a generalized-K law, from the
    cumulants kappa_j of A.  With Y = A^2 and d4 = Var Y / (E Y)^2,
    1/k_a and 1/m_a are the roots of t^2 - p t + q, where
    q = (kappa_3(Y) / (E Y)^3 - 2 d4^2) / (2 (1 + d4)) and p = d4 - q;
    Var Y and kappa_3(Y) are polynomials in kappa_1..kappa_6 with no
    cancellation that grows with N.  MomentMatchFailure where no
    generalized-K law has these moments: a negative discriminant
    p^2 - 4q or a non-positive root.  A discriminant within 1e-12 p^2
    below zero is rounding around a double root (identical Nakagami hops
    at N = 1, where k_a = m_a = m is exact) and is taken as zero; at
    N >= 2 such hops have no match.  DomainError above _MAX_ELEMENTS.
    """
    if n_elements > _MAX_ELEMENTS:
        raise DomainError(f"n_elements = {n_elements} exceeds {_MAX_ELEMENTS}, past which "
                          "the closed forms' Bessel recurrence is too slow")
    k1, k2, k3, k4, k5, k6 = _sum_cumulants(d1, d2, n_elements, 6)[1:]
    mu2 = k2 + k1 * k1  # E Y
    var_y = k4 + 4.0 * k1 * k3 + 2.0 * k2 * k2 + 4.0 * k1 * k1 * k2
    k3_y = (k6 + 6.0 * k1 * k5 + 12.0 * k1 * k1 * k4 + 12.0 * k2 * k4 + 8.0 * k1**3 * k3
            + 48.0 * k1 * k2 * k3 + 10.0 * k3 * k3 + 24.0 * k1 * k1 * k2 * k2 + 8.0 * k2**3)
    mu4, mu6 = var_y + mu2 * mu2, k3_y + 3.0 * mu2 * var_y + mu2**3
    if not 0.0 < mu6 < math.inf:
        raise OverflowGuard(f"the moments of the {n_elements}-element sum leave float range")
    d4 = var_y / mu2**2
    q = (k3_y / mu2**3 - 2.0 * d4 * d4) / (2.0 * (1.0 + d4))
    p = d4 - q
    disc = p * p - 4.0 * q
    if 0.0 > disc >= -1e-12 * p * p:
        disc = 0.0
    if not disc >= 0.0:
        raise MomentMatchFailure(f"negative discriminant {disc!r}")
    if not (p > 0.0 and q > 0.0):
        raise MomentMatchFailure(f"non-positive shape root: 1/k_a + 1/m_a = {p!r}, "
                                 f"1/(k_a m_a) = {q!r}")
    big = 0.5 * (p + math.sqrt(disc))  # the larger root, 1/m_a
    m_a, k_a = sorted((1.0 / big, big / q))
    return KGParams(k_a=k_a, m_a=m_a, xi=math.sqrt(k_a * m_a / mu2), omega_a=mu2,
                    n_elements=n_elements, moments2_4_6=(mu2, mu4, mu6))


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
# upper-tail probability at which the Gamma factors U ~ Gamma(k_a) and
# V ~ Gamma(m_a) are cut
_GAMMA_TAIL_Q = 1e-18
# log of the smallest normal double
_LOG_TINY = math.log(np.finfo(float).tiny)


# The per-law constants of the rules below are cached per KGParams, as the
# Gauss-Legendre rules are per order: a sweep asks for them at every point.
@functools.lru_cache(maxsize=256)
def _gamma_quantiles(p: KGParams) -> tuple[float, float]:
    """The _GAMMA_TAIL_Q upper quantiles (Q_k, Q_m) of Gamma(k_a) and Gamma(m_a)."""
    q = _GAMMA_TAIL_Q
    return float(sc.gammainccinv(p.k_a, q)), float(sc.gammainccinv(p.m_a, q))


def _x_upper(p: KGParams) -> float:
    """x beyond which 1 - F_A(x) < 2 _GAMMA_TAIL_Q (union bound on the Gamma factors)."""
    q_k, q_m = _gamma_quantiles(p)
    return math.sqrt(q_k * q_m) / p.xi


@functools.lru_cache(maxsize=256)
def _log_A_moments(p: KGParams) -> tuple[float, float]:
    """Mean and standard deviation of log A = (log U + log V)/2 - log xi."""
    mean = 0.5 * float(sc.digamma(p.k_a) + sc.digamma(p.m_a)) - math.log(p.xi)
    std = 0.5 * math.sqrt(float(sc.polygamma(1, p.k_a) + sc.polygamma(1, p.m_a)))
    return mean, std


def _panels_per_log(p: KGParams, fine: bool) -> float:
    return max(0.15, math.sqrt(p.k_a + p.m_a) / _PANEL_SCALE[fine])


def _cdf_A_quad_value(p: KGParams, x: float, per_log: float) -> float:
    """F_A(x), x > 0, as E_V[P(k_a, s/V)], s = (xi x)^2.

    Below eps = s / Q_k (Q_k the _GAMMA_TAIL_Q upper quantile of
    Gamma(k_a)) the inner P is 1 - O(_GAMMA_TAIL_Q), so that head is
    P(m_a, eps) in closed form.
    Above top = min(Q_m, v_cut) the V-integral is dropped: with P(k, y) <=
    y^k / Gamma(k+1) and F_A >= P(m_a, s/k_a) / 2, the part beyond v_cut
    is below _TAIL F_A.  In between, ceil(per_log log(top/eps)) geometric
    panels carry the 24-point Gauss-Legendre rule in log v.  s, eps, top
    and the nodes are carried as logs, so an x whose s or eps underflows
    keeps its value.  Below the normal range P(a, y) is its leading term
    y^a / Gamma(a+1): for the head P(m_a, eps), and for the inner
    P(k_a, s/v) of the nodes where s/v is that small.
    """
    k, m = p.k_a, p.m_a
    q_k, q_m = _gamma_quantiles(p)
    log_s = 2.0 * (math.log(p.xi) + math.log(x))
    log_eps = log_s - math.log(q_k)
    log_top = math.log(q_m)
    if k - m > 1e-3:  # the bound divides by k_a - m_a
        log_cut = log_s + (
            math.exp(log_s) / k - math.log(0.5 * _TAIL) + m * math.log(k) - math.log(m)
            - math.lgamma(k + 1.0) - math.log(k - m)
        ) / (k - m)
        log_top = min(log_top, log_cut)
    if log_eps > _LOG_TINY:  # the head
        out = sc.gammainc(m, math.exp(log_eps))
    else:
        out = math.exp(m * log_eps - math.lgamma(m + 1.0))
    if log_top > log_eps:
        n = max(math.ceil(per_log * (log_top - log_eps)), 1)
        half = 0.5 * (log_top - log_eps) / n
        mid = log_eps + (2 * np.arange(n) + 1) * half
        log_v = mid[:, None] + half * _GL_NODES
        v_dens = np.exp(m * log_v - np.exp(log_v) - math.lgamma(m))  # v f_V(v)
        log_y = log_s - log_v
        inner = sc.gammainc(k, np.exp(log_y))
        if log_s - log_top <= _LOG_TINY:  # s/v may leave the normal range
            tiny = log_y <= _LOG_TINY
            inner[tiny] = np.exp(k * log_y[tiny] - math.lgamma(k + 1.0))
        out += (half * _GL_WEIGHTS * inner * v_dens).sum()
    return float(min(out, 1.0))


def _self_checked(route: str, x: float, rule, rel: float) -> float:
    """The fine value of a fixed rule, rule(fine=True), once the coarse
    one, rule(fine=False), agrees with it within max(1e-13, rel |fine|);
    NoConvergence otherwise."""
    coarse, fine = rule(False), rule(True)
    if abs(fine - coarse) <= max(1e-13, rel * abs(fine)):
        return fine
    raise NoConvergence(
        f"{route} fixed rule failed its self-check at x={x!r}: "
        f"coarse {coarse!r}, fine {fine!r}"
    )


def _cdf_A_quadrature(p: KGParams, x: float) -> float:
    """Quadrature route for F_A, accurate in relative terms deep into both
    tails: the V-integral of _cdf_A_quad_value, fine rule checked against
    the coarse one within max(1e-13, 5e-11 F)."""
    if not x >= 0.0:
        raise DomainError(f"_cdf_A_quadrature requires x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    if x >= _x_upper(p):
        return 1.0
    return _self_checked(
        "cdf_A", x,
        lambda fine: _cdf_A_quad_value(p, x, _panels_per_log(p, fine)),
        rel=5e-11,
    )


def _signed_logsum(terms: list[tuple[float, float]]) -> tuple[float, float]:
    """Sum of sign*exp(log) contributions in log space -> (sign, log|sum|).
    Terms at log = +inf decide the sum alone: (sign, inf) where they share
    a sign, else the indeterminate (0.0, nan), which callers treat like a
    zero sum."""
    nonzero = [(s, l) for s, l in terms if s != 0.0 and l != -math.inf]
    if not nonzero:
        return 0.0, -math.inf
    lmax = max(l for _, l in nonzero)
    if lmax == math.inf:
        signs = {math.copysign(1.0, s) for s, l in nonzero if l == lmax}
        return (signs.pop(), math.inf) if len(signs) == 1 else (0.0, math.nan)
    acc = sum(s * math.exp(l - lmax) for s, l in nonzero)
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


def _log_series(
    p: KGParams, mis: MisalignmentStats | None, x: float, w: float | None = None
) -> tuple[float, float, float]:
    """The one evaluator of the expansion, in log space: F_A (mis None) or
    F_{A_e2e} at x, with u = x / B_o,

      F_A(x) = sum_s C_s x^(2s) 1F2(s; 1+s, 1+s-o; w),
      F(x)   = T0 + sum_s C_s u^(2s) [ 1F2(s; 1+s, 1+s-o; w)
                 - (2s/(2s-zeta)) 1F2(s-zeta/2; 1+s-o, 1+s-zeta/2; w) ],

    with T0 and C_s from _expansion_terms and w = (xi u)^2 unless given
    (docs/e2e_cdf_series.md).  w = 0 sets every 1F2 to 1: the high-SNR
    expansion.  Returns (sign, log|F|, cond), cond the ratio of the
    largest intermediate or partial magnitude to |F|.

    Every 1F2 partial sum starts at 1, so a value F <= 1 has cond at least
    the largest of |T0| and |C_s u^(2s)|.  Where w > 0 and that bound
    reaches _COND_LIMIT, the 1F2 are not summed and the zero-sum result
    (0.0, -inf, inf) is returned: _cdf would reject the sum anyway.
    Raises DegenerateParameters where _series_defined says the expansion
    does not exist.
    """
    zeta = None if mis is None else mis.zeta
    if not _series_defined(p, zeta):
        raise DegenerateParameters(
            f"high-SNR expansion undefined at k_a - m_a = {p.k_a - p.m_a!r},"
            f" zeta = {zeta!r} (a pole of its coefficients)"
        )
    u = x if mis is None else x / mis.b_o
    if w is None:
        w = (p.xi * u) ** 2
    t0, branches = _expansion_terms(p, u, zeta)
    contributions = [] if t0 is None else [t0]
    log_peak = -math.inf if t0 is None else t0[1]
    if w > 0.0 and max(log_peak, *(b[3] for b in branches)) >= math.log(_COND_LIMIT):
        return 0.0, -math.inf, math.inf
    for s, o, sign_c, lc in branches:
        bracket, peak = _hyp1f2_diag(s, 1.0 + s, 1.0 + s - o, w)
        if zeta is not None:
            f_shift, pk_shift = _hyp1f2_diag(
                s - zeta / 2.0, 1.0 + s - o, 1.0 + s - zeta / 2.0, w
            )
            ratio = 2.0 * s / (2.0 * s - zeta)
            # at w = 0 both 1F2 are 1, and 1 - ratio loses digits at small zeta
            bracket = -zeta / (2.0 * s - zeta) if w == 0.0 else bracket - ratio * f_shift
            peak = max(peak, abs(ratio) * pk_shift, abs(bracket))
        log_peak = max(log_peak, lc + math.log(peak))
        if bracket != 0.0:
            contributions.append(
                (sign_c * math.copysign(1.0, bracket), lc + math.log(abs(bracket)))
            )
    sign_total, log_total = _signed_logsum(contributions)
    if sign_total == 0.0:
        return 0.0, -math.inf, math.inf
    if log_total == math.inf:  # overflowed terms: inf - inf below
        return sign_total, log_total, math.inf
    return sign_total, log_total, math.exp(min(log_peak - log_total, 700.0))


def _series_defined(p: KGParams, zeta: float | None = None) -> bool:
    """Whether the series expansion exists: k_a - m_a off the integers
    and, under misalignment, zeta/2 off the pole lattice {s + n, n >= 0},
    s in {k_a, m_a}.  e = zeta/2 - s lies max(-e, |e - round(e)|) from
    {0, 1, 2, ...}."""
    d = p.k_a - p.m_a
    if abs(d - round(d)) <= _DEGENERACY_BAND:
        return False
    if zeta is None:
        return True
    for s in (p.k_a, p.m_a):
        e = zeta / 2.0 - s
        if max(-e, abs(e - round(e))) <= _DEGENERACY_BAND:
            return False
    return True


class _Cdf(NamedTuple):
    """What _cdf priced: the value F(x), its log, and whether the series
    gave it (False: the quadrature twin or a range bound did)."""

    value: float
    log: float
    series: bool


def _cdf(p: KGParams, mis: MisalignmentStats | None, x: float) -> _Cdf:
    """F(x) of A (mis None) or of A_e2e = h_g A: the one routing decision
    between the series and the quadrature twin.

    x = 0 and x at or past B_o _x_upper are priced by their bounds, 0 and
    1.  Elsewhere the series gives the value where it is defined, sums
    without NoConvergence, and is a probability with cond below
    _COND_LIMIT; its value is exp(log).  Otherwise the twin gives the
    value, as it returned it, and the log is taken of that.  DomainError
    unless x >= 0 (NaN included), so the series sums a finite argument.
    """
    if not x >= 0.0:
        raise DomainError(f"{'cdf_A' if mis is None else 'cdf_Ae2e'} requires x >= 0, got {x}")
    if x == 0.0:
        return _Cdf(0.0, -math.inf, False)
    if x >= (1.0 if mis is None else mis.b_o) * _x_upper(p):
        return _Cdf(1.0, 0.0, False)
    try:
        sign, log_f, cond = _log_series(p, mis, x)
    except (DegenerateParameters, NoConvergence):
        pass
    else:
        if sign > 0.0 and log_f <= 0.0 and cond < _COND_LIMIT:
            return _Cdf(math.exp(log_f), log_f, True)
    val = _cdf_A_quadrature(p, x) if mis is None else cdf_Ae2e_quadrature(p, mis, x)
    return _Cdf(val, math.log(val) if val > 0.0 else -math.inf, False)


def cdf_A(p: KGParams, x: float) -> float:
    """CDF of the cascade sum surrogate.

    Series route when k_a - m_a is safely non-integer and the expansion is
    well conditioned; quadrature otherwise (the routing of _cdf).
    """
    return _cdf(p, None, x).value


def pdf_A(p: KGParams, x) -> np.ndarray | float:
    """Density of the surrogate,
    4 xi^(k+m) / (Gamma(k) Gamma(m)) x^(k+m-1) K_(k-m)(2 xi x).

    Assembled in log space by special._log_gen_k, the generalized-K
    kernel it shares with fading.product_pdf.
    """
    x_arr = np.asarray(x, dtype=float)
    if not np.all((x_arr > 0.0) & (x_arr < math.inf)):
        raise DomainError("pdf_A requires finite x > 0")
    log_norm = (
        math.log(4.0)
        + (p.k_a + p.m_a) * math.log(p.xi)
        - sc.gammaln(p.k_a)
        - sc.gammaln(p.m_a)
    )
    log_pdf = _log_gen_k(log_norm, p.k_a, p.m_a, p.xi, np.atleast_1d(x_arr))
    out = np.exp(log_pdf).reshape(x_arr.shape)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# end-to-end gain A_e2e = h_g * A
# ---------------------------------------------------------------------------


def cdf_Ae2e(p: KGParams, s: MisalignmentStats, x: float) -> float:
    """CDF of the end-to-end gain h_g * A.

    Series route when k_a - m_a is safely non-integer and zeta/2 stays
    clear of the pole lattice anchored at k_a and m_a; quadrature of the
    defining integral otherwise (and whenever the series is ill
    conditioned): the routing of _cdf.
    """
    return _cdf(p, s, x).value


# The end-to-end density integrates over L = log of the inner argument x/y.
# With t = (y/B_o)^zeta uniform on (0, 1], t = exp(zeta (L_c - L)) for
# L_c = log(x/B_o), so it is an integral against the weight
# zeta exp(zeta (L_c - L)) dL on [L_c, L_top]:
#   f(x) = (1/x) int f_A(e^L) e^L weight dL.
# The fixed rule puts Gauss-Legendre segments on [L_c, L_top] graded
# geometrically away from L_c (where the weight falls on the scale
# 1/zeta) and from the mean of log A (the knee of f_A, on the scale of
# the standard deviation of log A).  Nodes per segment of the coarse and
# of the fine rule:
_E2E_NODES = (12, 16)
# segments start at this many weight scales 1/zeta and knee scales
_E2E_WEIGHT_STEP = 4.0
_E2E_KNEE_STEP = 1.0
# L_top is at most this many weight scales above max(L_c, mean log A):
# beyond it the weight has fallen by e^-50, and the integrand near the
# lower of the two carries at least (1 - 1/e)/e of its weight there
# (log A has a log-concave density, so P(log A <= its mean) >= 1/e).
# The integrand has log-slope <= 2 m_a - zeta, so for zeta >= 4 m_a
# everything beyond L_c + _E2E_MARGIN / (zeta - 2 m_a) is below
# e^-50 zeta / (zeta - 2 m_a) <= 2e-22 of the value near L_c.
_E2E_MARGIN = 50.0


def _e2e_nodes(
    p: KGParams, s: MisalignmentStats, x: float, n_nodes: int
) -> tuple[np.ndarray, np.ndarray]:
    """(e^L nodes, weights); see the comment above _E2E_NODES."""
    zeta = s.zeta
    l_c = math.log(x / s.b_o)
    mean, std = _log_A_moments(p)
    l_top = min(math.log(_x_upper(p)), max(l_c, mean) + _E2E_MARGIN / zeta)
    if zeta >= 4.0 * p.m_a:
        l_top = min(l_top, l_c + _E2E_MARGIN / (zeta - 2.0 * p.m_a))
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
    return np.exp(ell.ravel()), weights


def _pdf_Ae2e_rule(p: KGParams, s: MisalignmentStats, x: float, fine: bool) -> float:
    """The fixed rule for f_{A_e2e}(x): one vectorised pdf_A call."""
    z, w = _e2e_nodes(p, s, x, _E2E_NODES[fine])
    return float(np.dot(w, pdf_A(p, z) * z)) / x


def _cdf_Ae2e_rule(p: KGParams, s: MisalignmentStats, x: float, fine: bool) -> float:
    """F_A(x/B_o) + (x/zeta) f_{A_e2e}(x) by the fixed rules of both."""
    head = _cdf_A_quad_value(p, x / s.b_o, _panels_per_log(p, fine))
    return head + x / s.zeta * _pdf_Ae2e_rule(p, s, x, fine)


def cdf_Ae2e_quadrature(p: KGParams, s: MisalignmentStats, x: float) -> float:
    """Defining integral F(x) = int_0^{B_o} F_A(x/y) f_{h_g}(y) dy, taken
    as F_A(x/B_o) + (x/zeta) f_{A_e2e}(x): two nonnegative parts, so
    nothing cancels (derivation in docs/e2e_cdf_series.md).  The sum
    gives the value once its coarse and fine rules agree within
    max(1e-13, 1e-9 F); otherwise it raises NoConvergence.
    """
    if not x >= 0.0:
        raise DomainError(f"cdf_Ae2e_quadrature requires x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    if x >= s.b_o * _x_upper(p):
        return 1.0
    fine = _self_checked(
        "cdf_Ae2e", x, lambda fine: _cdf_Ae2e_rule(p, s, x, fine), rel=1e-9
    )
    return min(max(fine, 0.0), 1.0)


def pdf_Ae2e(p: KGParams, s: MisalignmentStats, x: float) -> float:
    """Density of the end-to-end gain, by differentiating the defining
    integral: f(x) = (zeta/x) int_{x/B_o}^inf f_A(v) (v B_o / x)^(-zeta) dv.

    The power factor is bounded by 1 on the integration range, so the
    integrand is smooth and overflow-free.  The fixed rule over log v
    gives the value once its coarse and fine versions agree within
    max(1e-13, 1e-9 f); otherwise it raises NoConvergence.  For large
    zeta the loss concentrates at B_o and the rule's range narrows onto
    x/B_o (the zeta >= 4 m_a cut of _e2e_nodes).
    """
    if not x > 0.0:
        raise DomainError(f"pdf_Ae2e requires x > 0, got {x}")
    if x >= s.b_o * _x_upper(p):
        return 0.0
    fine = _self_checked(
        "pdf_Ae2e", x, lambda fine: _pdf_Ae2e_rule(p, s, x, fine), rel=1e-9
    )
    return max(fine, 0.0)
