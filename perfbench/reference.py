"""Independent references for the benchmark's output checks.

Nothing here calls an evaluation route of ris_outage.  The matched law of
the cascade gain is A = sqrt(U V) / xi with U ~ Gamma(k_a), V ~ Gamma(m_a)
(k_a >= m_a), and the end-to-end gain is h_g A with h_g = B_o t^(1/zeta),
t uniform on (0, 1].  Conditioning on A instead of on h_g gives

    F_e2e(x) = F_A(c) + T(c),        f_e2e(x) = zeta T(c) / x,
    T(c)     = E[(c/A)^zeta ; A > c],  c = x / B_o,

and conditioning T on V leaves one integral over V of an upper incomplete
gamma function in U.  The program integrates the other way round (over
the loss, with its own F_A inside), so agreement between the two is a
check of both the derivation and the code.

F_A itself is integrated over U with the lower incomplete gamma in V,
again the opposite order to the program's quadrature route.  Every
integral is done in log space with a scale taken from its own peak, so
values far below 1e-100 keep their relative precision.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import scipy.integrate as si
import scipy.special as sc

_EPSREL = 1e-10
_SAMPLE_CHUNK = 1 << 15  # draws of the physical channel held at once


def _log_lower_p(a: float, y):
    """log P(a, y), the regularized lower incomplete gamma, without
    underflow for tiny y (Kummer: P = y^a e^-y 1F1(1; a+1; y) / Gamma(a+1))."""
    y = np.asarray(y, dtype=float)
    p = sc.gammainc(a, y)
    with np.errstate(divide="ignore"):
        out = np.log(p)
    small = p < 1e-280
    if np.any(small):
        ys = np.where(small, y, 1.0)  # 1F1 is slow at large arguments; keep it away
        series = a * np.log(ys) - ys - sc.gammaln(a + 1.0) + np.log(sc.hyp1f1(1.0, a + 1.0, ys))
        out = np.where(small, series, out)
    return out


def _log_upper_gamma(a: float, y):
    """log Gamma(a, y), the unregularized upper incomplete gamma, a > 0."""
    with np.errstate(divide="ignore"):
        return np.log(sc.gammaincc(a, y)) + sc.gammaln(a)


def _log_integral(log_f, lo: float, hi: float, points=()) -> float:
    """log of int_lo^hi exp(log_f(w)) dw.  The range is first trimmed to
    where the integrand is within e^-70 of its peak, which becomes the
    scale, so quad sees an O(1) integrand over its support only."""
    grid = np.linspace(lo, hi, 4001)
    vals = log_f(grid)
    peak = float(np.max(vals))
    if not math.isfinite(peak):
        return -math.inf
    keep = np.flatnonzero(vals > peak - 70.0)
    lo, hi = float(grid[max(keep[0] - 1, 0)]), float(grid[min(keep[-1] + 1, len(grid) - 1)])
    w_peak = float(grid[int(np.argmax(vals))])
    breaks = sorted({w_peak, *(p for p in points if lo < p < hi)} - {lo, hi})
    with warnings.catch_warnings():
        # roundoff near the requested precision; the checks' 1e-6 tolerance
        # is four orders above what these integrals deliver
        warnings.simplefilter("ignore", si.IntegrationWarning)
        val, _err = si.quad(
            lambda w: math.exp(float(log_f(w)) - peak), lo, hi,
            points=breaks or None, epsabs=0.0, epsrel=_EPSREL, limit=400,
        )
    return peak + math.log(val) if val > 0.0 else -math.inf


class MatchedLaw:
    """The generalized-K law A = sqrt(U V) / xi, optionally times the
    geometric loss B_o t^(1/zeta)."""

    def __init__(self, k_a: float, m_a: float, xi: float):
        self.k, self.m = max(k_a, m_a), min(k_a, m_a)
        self.xi = xi

    def _upper_tail_negligible(self, s: float) -> bool:
        # U V > s needs U > sqrt(s) or V > sqrt(s)
        r = math.sqrt(s)
        return float(sc.gammaincc(self.k, r) + sc.gammaincc(self.m, r)) < 1e-300

    def cdf(self, y: float) -> float:
        """F_A(y) = E_U[P(m, s / U)], s = (xi y)^2, integrated over log U."""
        if y <= 0.0:
            return 0.0
        k, m = self.k, self.m
        s = (self.xi * y) ** 2
        if self._upper_tail_negligible(s):
            return 1.0

        def log_f(w):
            return k * w - np.exp(w) - sc.gammaln(k) + _log_lower_p(m, s * np.exp(-w))

        lo = min(math.log(s), math.log(sc.gammaincinv(k, 1e-30))) - 60.0 / k
        hi = math.log(sc.gammainccinv(k, 1e-40))
        pts = (math.log(s), math.log(max(k - m, 1e-6)), math.log(k))
        return min(math.exp(_log_integral(log_f, lo, hi, pts)), 1.0)

    def pdf(self, y: float) -> float:
        """f_A(y) = 2 xi^2 y int f_U(u) f_V(s/u) du/u."""
        k, m = self.k, self.m
        s = (self.xi * y) ** 2
        if self._upper_tail_negligible(s):
            return 0.0
        log_s = math.log(s)

        def log_f(w):
            return (
                (k - 1.0) * w - np.exp(w) - sc.gammaln(k)
                + (m - 1.0) * (log_s - w) - s * np.exp(-w) - sc.gammaln(m)
            )

        d = k - m
        u_star = 0.5 * (d + math.sqrt(d * d + 4.0 * s))
        width = 1.0 / math.sqrt(u_star + s / u_star)
        w0 = math.log(u_star)
        lo, hi = w0 - 60.0 * width - 5.0, w0 + 60.0 * width + 5.0
        log_val = _log_integral(log_f, lo, hi, (w0,))
        return 2.0 * self.xi**2 * y * math.exp(log_val)

    def tail_moment(self, c: float, zeta: float) -> float:
        """T(c) = E[(c/A)^zeta ; A > c]."""
        k, m = self.k, self.m
        s = (self.xi * c) ** 2
        if self._upper_tail_negligible(s):
            return 0.0
        a = k - zeta / 2.0
        if a <= 0.0:
            # the incomplete gamma in U has no regularized form here:
            # integrate (c/A)^zeta against the density of A directly
            hi = math.sqrt(sc.gammainccinv(k, 1e-40) * sc.gammainccinv(m, 1e-40)) / self.xi
            if c >= hi:
                return 0.0
            val, _err = si.quad(
                lambda y: math.exp(zeta * (math.log(c) - math.log(y))) * self.pdf(y),
                c, hi, epsabs=0.0, epsrel=1e-10, limit=400,
            )
            return val
        log_s = math.log(s)

        def log_f(w):
            return (
                m * w - np.exp(w) - sc.gammaln(m)
                + 0.5 * zeta * (log_s - w)
                + _log_upper_gamma(a, s * np.exp(-w)) - sc.gammaln(k)
            )

        lo = log_s - math.log(1000.0 + a)
        hi = math.log(sc.gammainccinv(m, 1e-40))
        pts = (log_s, math.log(m), math.log(max(m - zeta / 2.0, 1e-6)))
        return math.exp(_log_integral(log_f, lo, hi, pts))

    def cdf_e2e(self, x: float, b_o: float, zeta: float) -> float:
        if x <= 0.0:
            return 0.0
        c = x / b_o
        return min(self.cdf(c) + self.tail_moment(c, zeta), 1.0)

    def pdf_e2e(self, x: float, b_o: float, zeta: float) -> float:
        return zeta * self.tail_moment(x / b_o, zeta) / x

    def floor(self, b_o: float, zeta: float) -> float:
        """E[(B_o A)^-zeta] from the Gamma negative moments; the
        coefficient of x^zeta in F_e2e as x -> 0."""
        k, m = self.k, self.m
        return math.exp(
            zeta * math.log(self.xi / b_o)
            + sc.gammaln(k - zeta / 2.0) + sc.gammaln(m - zeta / 2.0)
            - sc.gammaln(k) - sc.gammaln(m)
        )

    def sample(self, rng: np.random.Generator, n: int, b_o=None, zeta=None) -> np.ndarray:
        """Draws of A, or of h_g A when (b_o, zeta) are given."""
        a = np.sqrt(rng.gamma(self.k, size=n) * rng.gamma(self.m, size=n)) / self.xi
        if b_o is not None:
            a *= b_o * (1.0 - rng.random(n)) ** (1.0 / zeta)
        return a


def effective_threshold(gamma_th: float, kappa_s: float, kappa_d: float) -> float | None:
    """gamma_th after hardware distortion, None at or past the ceiling:
    gamma_u = g^2 / (k^2 g^2 + 1/gamma) <= gamma_th <=> g^2 gamma <= this."""
    denom = 1.0 - (kappa_s**2 + kappa_d**2) * gamma_th
    return None if denom <= 0.0 else gamma_th / denom


def sample_envelope(hop: dict, rng: np.random.Generator, shape) -> np.ndarray:
    """Physical fading envelope: Nakagami-m from a Gamma power draw, Rice
    from its line-of-sight amplitude plus two Gaussian quadratures."""
    if hop["kind"] == "nakagami":
        m, omega = hop["m"], hop.get("omega", 1.0)
        return np.sqrt(rng.gamma(m, omega / m, size=shape))
    k = 10.0 ** (hop["k_r_db"] / 10.0)
    los = math.sqrt(k / (k + 1.0))
    sigma = math.sqrt(0.5 / (k + 1.0))
    return np.hypot(los + sigma * rng.standard_normal(shape), sigma * rng.standard_normal(shape))


def sample_cascade(hop1: dict, hop2: dict, n_elements: int, rng, n: int):
    """n draws of A = sum_i |h_i| |g_i| from the physical channel."""
    out = np.empty(n)
    for lo in range(0, n, _SAMPLE_CHUNK):
        size = min(_SAMPLE_CHUNK, n - lo)
        h = sample_envelope(hop1, rng, (size, n_elements))
        g = sample_envelope(hop2, rng, (size, n_elements))
        out[lo:lo + size] = (h * g).sum(axis=1)
    return out
