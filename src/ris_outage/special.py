"""The generalized hypergeometric 1F2 of the closed-form channel statistics.

``hyp1f2`` is implemented directly as a compensated power series because
scipy has no 1F2; its truncation policy is the fixed pair _REL_TOL and
_MAX_TERMS.  The other special functions come from scipy.special at their
call sites.
"""

from __future__ import annotations

import math

from .errors import DomainError, NoConvergence

__all__ = ["hyp1f2"]

# a term below this fraction of the partial sum counts as converged
_REL_TOL = 1e-12
# series length at which NoConvergence is raised
_MAX_TERMS = 10_000


def _is_nonpositive_integer(x: float, tol: float = 1e-9) -> bool:
    return x <= tol and abs(x - round(x)) < tol


def hyp1f2(a: float, b1: float, b2: float, z: float) -> float:
    """Generalized hypergeometric 1F2(a; b1, b2; z) by direct summation.

    Terms follow the ratio recurrence t_{n+1} = t_n (a+n) z /
    ((b1+n)(b2+n)(n+1)) under compensated (Kahan) summation; the series
    stops once three consecutive terms fall below _REL_TOL times the
    partial sum.  NoConvergence is raised at the first term or partial
    sum that overflows, or after _MAX_TERMS terms.
    """
    value, _ = _hyp1f2_diag(a, b1, b2, z)
    return value


def _hyp1f2_diag(a: float, b1: float, b2: float, z: float) -> tuple[float, float]:
    """hyp1f2 plus a cancellation diagnostic.

    Returns (value, peak) where peak is the largest intermediate magnitude
    seen (max of |term| and |partial sum|).  peak/|value| estimates how
    many digits the alternating series destroyed; callers that need
    guaranteed accuracy check it before trusting the result.
    """
    for b in (b1, b2):
        if _is_nonpositive_integer(b):
            raise DomainError(f"hyp1f2 parameter b = {b} is a non-positive integer")
    if not math.isfinite(z):
        raise DomainError(f"hyp1f2 requires finite z, got {z}")
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
