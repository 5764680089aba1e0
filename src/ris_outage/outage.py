"""Outage probability, high-SNR approximations, floors, and diversity.

All four cases (ideal/impaired front end, aligned/misaligned beam)
reduce to one evaluation: OP = CDF(sqrt(gamma_th_eff / gamma)) with
gamma_th_eff = gamma_th / (1 - (kappa_s^2 + kappa_d^2) gamma_th), where
the CDF is that of A (aligned) or A_e2e (misaligned), and OP = 1 once
gamma_th reaches the hardware-imposed ceiling 1/(kappa_s^2 + kappa_d^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cascade import (
    KGParams,
    _expansion_terms,
    _series_defined,
    _signed_logsum,
    cdf_A,
    cdf_Ae2e,
    log_cdf_A,
)
from .errors import (
    AsymptoteOutOfRegime,
    DegenerateParameters,
    DomainError,
    FloorUndefined,
)
from .geometry import MisalignmentStats

__all__ = [
    "HardwareProfile",
    "OutageScenario",
    "op_exact",
    "op_asymptotic",
    "op_floor",
    "max_threshold",
    "diversity_order",
    "DiversityReport",
]


@dataclass(frozen=True)
class HardwareProfile:
    """Transmitter / receiver error vector magnitudes.  Practical RF
    front ends sit around 0.07..0.3; zero means an ideal front end."""

    kappa_s: float = 0.0
    kappa_d: float = 0.0

    def __post_init__(self):
        for name in ("kappa_s", "kappa_d"):
            v = getattr(self, name)
            if not (0.0 <= v < 1.0):
                raise DomainError(f"{name} must be in [0, 1), got {v}")

    @property
    def kappa_sq_sum(self) -> float:
        return self.kappa_s**2 + self.kappa_d**2


IDEAL_HARDWARE = HardwareProfile(0.0, 0.0)


@dataclass(frozen=True)
class OutageScenario:
    """One outage-probability evaluation point.  mis=None selects the
    aligned (no disorientation/misalignment) analysis path."""

    kg: KGParams
    hw: HardwareProfile
    gamma: float
    gamma_th: float
    mis: MisalignmentStats | None = None

    def __post_init__(self):
        if not (self.gamma > 0 and self.gamma_th > 0):
            raise DomainError("gamma and gamma_th must be positive")


def max_threshold(hw: HardwareProfile) -> float:
    """Hardware-imposed SNR-threshold ceiling 1/(kappa_s^2 + kappa_d^2);
    +inf for ideal front ends."""
    k2 = hw.kappa_sq_sum
    return math.inf if k2 == 0.0 else 1.0 / k2


def _effective_threshold(s: OutageScenario) -> float | None:
    """gamma_th / (1 - kappa^2 gamma_th), or None past the ceiling."""
    k2 = s.hw.kappa_sq_sum
    denom = 1.0 - k2 * s.gamma_th
    if denom <= 0.0:
        return None
    return s.gamma_th / denom


def op_exact(s: OutageScenario) -> float:
    """Outage probability for the scenario's case (exact CDF route)."""
    eff = _effective_threshold(s)
    if eff is None:
        return 1.0
    x = math.sqrt(eff / s.gamma)
    if s.mis is None:
        return cdf_A(s.kg, x)
    return cdf_Ae2e(s.kg, s.mis, x)


def op_asymptotic(s: OutageScenario) -> float:
    """High-SNR outage approximation: the series forms truncated by
    replacing every 1F2 factor with its z -> 0 limit of 1.

    Aligned case: sum over branches of C_b x^(2b).  Misaligned case: the
    x^zeta term T0 plus sum over branches of -C_b x^(2b) zeta/(2b - zeta)
    (all arguments scaled by B_o); T0 and C_b come from the expansion
    behind the exact CDFs.  Raises DegenerateParameters where the
    expansion is undefined, and AsymptoteOutOfRegime where the truncated
    sum is not a probability below 1 (far from the high-SNR regime).
    """
    eff = _effective_threshold(s)
    if eff is None:
        return 1.0
    p = s.kg
    zeta = None if s.mis is None else s.mis.zeta
    if not _series_defined(p, zeta):
        raise DegenerateParameters(
            f"high-SNR expansion undefined at k_a - m_a = {p.k_a - p.m_a!r},"
            f" zeta = {zeta!r} (a pole of its coefficients)"
        )
    x = math.sqrt(eff / s.gamma)
    if s.mis is None:
        _, branches = _expansion_terms(p, x)
        terms = [(sign, lc) for _, _, sign, lc in branches]
    else:
        t0, branches = _expansion_terms(p, x / s.mis.b_o, zeta)
        terms = [t0]
        for b, _, sign, lc in branches:
            factor = -zeta / (2.0 * b - zeta)  # 1 - 2b/(2b - zeta)
            terms.append(
                (sign * math.copysign(1.0, factor), lc + math.log(abs(factor)))
            )
    sign, logmag = _signed_logsum(terms)
    if sign <= 0.0 or logmag >= 0.0:
        raise AsymptoteOutOfRegime(
            f"high-SNR expansion is {'non-positive' if sign <= 0.0 else '>= 1'}"
            f" at x = {x!r}"
        )
    return math.exp(logmag)


def op_floor(s: OutageScenario) -> float:
    """Closed-form outage floor under misalignment: the coefficient of
    x^zeta in the high-SNR expansion,
    xi^zeta Gamma(k-zeta/2) Gamma(m-zeta/2) / (B_o^zeta Gamma(k) Gamma(m)),
    independent of the hardware profile below the threshold ceiling and 1
    above it.

    Raises FloorUndefined when zeta >= 2 min(k_a, m_a), where a gamma
    argument is non-positive and the closed form is invalid, and when the
    coefficient is at least 1, which is not a probability.  The first
    argument of the exception is the short reason.
    """
    if s.mis is None:
        raise DomainError("op_floor requires a misalignment scenario")
    if s.gamma_th >= max_threshold(s.hw):
        return 1.0
    p, zeta, b_o = s.kg, s.mis.zeta, s.mis.b_o
    if zeta >= 2.0 * min(p.k_a, p.m_a):
        raise FloorUndefined(
            "Gamma-argument condition violated",
            f"(zeta = {zeta!r} >= 2 min(k_a, m_a) = {2 * min(p.k_a, p.m_a)!r})",
        )
    (_, log_t0), _ = _expansion_terms(p, 1.0 / b_o, zeta)
    if log_t0 >= 0.0:
        raise FloorUndefined(
            "floor coefficient >= 1, not a probability",
            f"(coefficient {math.exp(min(log_t0, 700.0)):.6g} at zeta = {zeta!r},"
            f" B_o = {b_o!r})",
        )
    return math.exp(log_t0)


@dataclass(frozen=True)
class DiversityReport:
    """Closed-form diversity order next to the empirically fitted slope.

    closed_form follows the stated result max(k_a, m_a); empirical_slope
    is the log-log decay rate of the aligned ideal OP measured between
    gamma/gamma_th = 50 and 70 dB.  The two are reported side by side and
    generally disagree: the slowest-decaying asymptotic term has exponent
    min(k_a, m_a), and the measured slope tracks it.
    """

    closed_form: float
    empirical_slope: float | None = None


def diversity_order(p: KGParams, empirical: bool = False) -> DiversityReport:
    """Diversity order of the aligned ideal-hardware link."""
    closed = max(p.k_a, p.m_a)
    if not empirical:
        return DiversityReport(closed_form=closed)
    ratios_db = np.linspace(50.0, 70.0, 9)
    logs = []
    for r_db in ratios_db:
        x = math.sqrt(10.0 ** (-r_db / 10.0))
        logs.append(log_cdf_A(p, x) / math.log(10.0))
    slope = -np.polyfit(ratios_db / 10.0, logs, 1)[0]
    return DiversityReport(closed_form=closed, empirical_slope=float(slope))
