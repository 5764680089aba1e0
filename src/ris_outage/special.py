"""The generalized hypergeometric 1F2 of the closed-form channel statistics.

``hyp1f2`` is implemented directly as a compensated power series because
scipy has no 1F2 and the truncation policy must be explicit; the other
special functions come from scipy.special at their call sites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, NoConvergence

__all__ = ["SeriesControl", "hyp1f2"]


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy for hypergeometric power series.

    rel_tol is the relative size below which a term counts as converged;
    max_terms caps the series length before NoConvergence is raised.
    """

    rel_tol: float = 1e-12
    max_terms: int = 10_000

    def __post_init__(self):
        if not (0.0 < self.rel_tol <= 1e-3):
            raise DomainError(f"rel_tol must be in (0, 1e-3], got {self.rel_tol}")
        if self.max_terms < 64:
            raise DomainError(f"max_terms must be >= 64, got {self.max_terms}")


DEFAULT_SERIES_CONTROL = SeriesControl()


def _is_nonpositive_integer(x: float, tol: float = 1e-9) -> bool:
    return x <= tol and abs(x - round(x)) < tol


def hyp1f2(
    a: float,
    b1: float,
    b2: float,
    z: float,
    ctl: SeriesControl = DEFAULT_SERIES_CONTROL,
) -> float:
    """Generalized hypergeometric 1F2(a; b1, b2; z) by direct summation.

    Terms follow the ratio recurrence t_{n+1} = t_n (a+n) z /
    ((b1+n)(b2+n)(n+1)) under compensated (Kahan) summation; the series
    stops once three consecutive terms fall below rel_tol times the
    partial sum.
    """
    value, _ = _hyp1f2_diag(a, b1, b2, z, ctl)
    return value


def _hyp1f2_diag(
    a: float,
    b1: float,
    b2: float,
    z: float,
    ctl: SeriesControl = DEFAULT_SERIES_CONTROL,
) -> tuple[float, float]:
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
    for n in range(ctl.max_terms):
        term *= (a + n) * z / ((b1 + n) * (b2 + n) * (n + 1))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        mag = max(abs(term), abs(total))
        if mag > peak:
            peak = mag
        if abs(term) < ctl.rel_tol * abs(total):
            ok_streak += 1
            if ok_streak >= 3:
                return total, peak
        else:
            ok_streak = 0
    raise NoConvergence(
        f"hyp1f2({a}, {b1}, {b2}, {z}) did not converge in {ctl.max_terms} terms"
    )
