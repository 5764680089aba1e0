"""Special functions of the closed-form channel statistics.

``_hyp1f2_diag`` sums 1F2 directly as a compensated power series because
scipy has no 1F2; its truncation policy is the fixed pair _REL_TOL and
_MAX_TERMS, and its one caller is cascade._log_series.  ``_log_gen_k``
is the one kernel of the generalized-K densities, of A (cascade.pdf_A)
and of one envelope product (fading.product_pdf).  The other special
functions come from scipy.special at their call sites.  The module has
no public names.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.special as sc

from .errors import NoConvergence

# a term below this fraction of the partial sum counts as converged
_REL_TOL = 1e-12
# series length at which NoConvergence is raised
_MAX_TERMS = 10_000


def _hyp1f2_diag(a: float, b1: float, b2: float, z: float) -> tuple[float, float]:
    """Generalized hypergeometric 1F2(a; b1, b2; z) by direct summation,
    plus a cancellation diagnostic.

    Terms follow the ratio recurrence t_{n+1} = t_n (a+n) z /
    ((b1+n)(b2+n)(n+1)) under compensated (Kahan) summation; the series
    stops once three consecutive terms fall below _REL_TOL times the
    partial sum.  NoConvergence is raised at the first term or partial
    sum that overflows, or after _MAX_TERMS terms.  Returns (value,
    peak), peak the largest intermediate magnitude seen (max of |term|
    and |partial sum|): peak/|value| estimates how many digits the
    alternating series destroyed.  The caller keeps b1 and b2 off the
    non-positive integers and z finite (cascade._series_defined and the
    range bounds of cascade._cdf).
    """
    if z == 0.0:
        return 1.0, 1.0

    total = 1.0
    comp = 0.0  # Kahan compensation
    term = 1.0
    peak = 1.0
    ok_streak = 0
    for n in range(_MAX_TERMS):
        term *= (a + n) * z / ((b1 + n) * (b2 + n) * (n + 1))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        mag = max(abs(term), abs(total))
        if mag > peak:
            # the first infinite term or partial sum sets a new peak before
            # anything can turn to NaN
            if mag == math.inf:
                raise NoConvergence(
                    f"hyp1f2({a}, {b1}, {b2}, {z}) overflows at term {n + 1}"
                )
            peak = mag
        if abs(term) < _REL_TOL * abs(total):
            ok_streak += 1
            if ok_streak >= 3:
                return total, peak
        else:
            ok_streak = 0
    raise NoConvergence(
        f"hyp1f2({a}, {b1}, {b2}, {z}) did not converge in {_MAX_TERMS} terms"
    )


def _log_gen_k(log_c, k, m, xi: float, x) -> np.ndarray:
    """log(c x^(k+m-1) K_(k-m)(2 xi x)), x > 0, broadcast over log_c, k,
    m and x: the log of a generalized-K density term.

    Assembled through the scaled Bessel function kve(v, y) = K_v(y) e^y;
    where kve overflows (large order, small argument) the same term comes
    from _log_power_bessel.
    """
    y = 2.0 * xi * x
    with np.errstate(over="ignore", divide="ignore"):
        out = log_c + (k + m - 1.0) * np.log(x) + np.log(sc.kve(k - m, y)) - y
    over = ~np.isfinite(out)
    if np.any(over):
        log_c, k, m, x = (np.broadcast_to(a, out.shape)[over] for a in (log_c, k, m, x))
        out[over] = log_c + _log_power_bessel(k, m, xi, x)
    return out


def _log_power_bessel(k: np.ndarray, m: np.ndarray, xi: float, x: np.ndarray) -> np.ndarray:
    """log(x^(k+m-1) K_nu(2 xi x)), nu = |k - m|, without overflow,
    elementwise over k, m and x.

    Forward recurrence K_(v+1) = K_(v-1) + (2v/y) K_v (DLMF 10.29.1)
    from mu = frac(nu), where K_(mu-1) = K_(1-mu), run on the ratios
    s = y K_(v+1) / K_v = y K_(v-1) / K_v + 2v.  K_nu is the dominant
    solution, so the forward direction is stable, and every step adds
    positive terms.  The y^n of the n = floor(nu) steps is merged with
    x^(k+m-1) as x^(2 min(k, m) - 1 + mu) / (2 xi)^n; written through mu,
    the exponent follows the rounded order, where k + m - 1 - n would be
    off by the rounding of k - m times |log x|.
    """
    nu = np.abs(k - m)
    n = np.floor(nu)
    mu = nu - n
    y = 2.0 * xi * x
    k_mu = sc.kve(mu, y)
    out = (
        np.log(k_mu) - y
        + (2.0 * np.minimum(k, m) - 1.0 + mu) * np.log(x)
        - n * math.log(2.0 * xi)
    )
    q = y * sc.kve(1.0 - mu, y) / k_mu  # y K_(mu-1) / K_mu
    for j in range(int(n.max())):
        s = q + 2.0 * (mu + j)  # y K_(v+1) / K_v at v = mu + j
        out += np.where(j < n, np.log(s), 0.0)  # 0 past an element's n steps
        q = y * y / s
    return out
