"""Deterministic geometry pipeline for the RIS-to-UAV hop.

Maps physical scenario parameters to the beamwidth at the receiver plane,
the statistics (B_o, zeta) of the geometric power loss h_g caused by UAV
disorientation and beam misalignment, and the average-SNR link budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.special as sc

from .errors import DegenerateJitter, DomainError

__all__ = [
    "GeometryConfig",
    "MisalignmentStats",
    "LinkBudget",
    "beamwidth",
    "coherence_length",
    "misalignment_stats",
    "hg_pdf",
    "sample_hg",
    "average_snr",
]

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact in the SI


@dataclass(frozen=True)
class GeometryConfig:
    """Physical parameters of the RIS-to-UAV hop.

    l2: RIS-UAV distance [m]; w_o: beam-waist radius [m]; f: carrier
    frequency [Hz]; cn2: refraction structure parameter [m^(-2/3)];
    alpha: receiver effective-area radius [m]; theta/phi: mean azimuth /
    polar angles [rad]; sigma_p: per-axis position jitter std dev;
    sigma_o: orientation jitter std dev [rad]; d_x: mean x-offset [m].

    sigma_p and d_x*sigma_o enter the shape exponent in the same units as
    the beamwidth; values are consumed exactly as given.  DomainError
    where the coherence length, beamwidth or jitter variance they give
    leaves float range, or where theta and phi leave the footprint unbounded.
    """

    l2: float
    w_o: float
    f: float
    cn2: float
    alpha: float
    theta: float
    phi: float
    sigma_p: float
    sigma_o: float = 0.0
    d_x: float = 0.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
        if self.l2 <= 0:
            raise DomainError(f"l2 must be positive, got {self.l2}")
        if self.w_o <= 0:
            raise DomainError(f"w_o must be positive, got {self.w_o}")
        if self.f <= 0:
            raise DomainError(f"f must be positive, got {self.f}")
        if self.cn2 < 0:
            raise DomainError(f"cn2 must be >= 0, got {self.cn2}")
        if self.alpha <= 0:
            raise DomainError(f"alpha must be positive, got {self.alpha}")
        if self.sigma_p < 0 or self.sigma_o < 0:
            raise DomainError("jitter standard deviations must be >= 0")
        # the one check of the derived beam quantities; beamwidth fails
        # wherever the coherence length leaves float range
        try:
            in_range = 0.0 < beamwidth(self) < math.inf and _jitter(self) < math.inf
        except (OverflowError, ZeroDivisionError):
            in_range = False
        if not in_range:
            raise DomainError(
                "coherence length, beamwidth or jitter variance leaves float range"
            )
        _footprint(self)


@dataclass(frozen=True)
class MisalignmentStats:
    """Derived misalignment statistics: maximum geometric-gain fraction
    b_o in (0, 1], shape exponent zeta > 0, plus all intermediates."""

    b_o: float
    zeta: float
    w_l2: float
    rho_l2: float
    v_min: float
    v_max: float
    rho_min: float
    rho_max: float
    k_min: float
    k_max: float
    k_m: float

    def __post_init__(self):
        if not (0.0 < self.b_o <= 1.0):
            raise DomainError(f"b_o must be in (0, 1], got {self.b_o}")
        if not (self.zeta > 0.0 and math.isfinite(self.zeta)):
            raise DomainError(f"zeta must be positive and finite, got {self.zeta}")
        if self.rho_min > self.rho_max:
            raise DomainError("rho_min must not exceed rho_max")


@dataclass(frozen=True)
class LinkBudget:
    """Spreading-loss budget for both hops.

    l1/l2 are square-root reference powers, n1/n2 path-loss exponents,
    dist1/dist2 the hop distances [m], p_s the transmit power [W] and
    sigma_w2 the noise power [W].
    """

    l1: float
    l2: float
    n1: float
    n2: float
    dist1: float
    dist2: float
    p_s: float
    sigma_w2: float

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
        for name in ("l1", "l2", "dist1", "dist2", "p_s", "sigma_w2"):
            if getattr(self, name) <= 0:
                raise DomainError(f"{name} must be positive")


def coherence_length(g: GeometryConfig) -> float:
    """Turbulence coherence length rho(L2) = (0.55 Cn2 k^2 L2)^(-3/5)
    with wave number k = 2 pi f / c; inf at cn2 = 0, the no-turbulence
    limit."""
    if g.cn2 == 0.0:
        return math.inf
    k = 2.0 * math.pi * g.f / SPEED_OF_LIGHT
    return (0.55 * g.cn2 * k * k * g.l2) ** (-3.0 / 5.0)


def beamwidth(g: GeometryConfig) -> float:
    """Beamwidth at the receiver plane,
    w(L2) = w_o sqrt(1 + (1 + 2 w_o^2/rho(L2)^2) (c L2 / (pi f w_o^2))^2)."""
    spread = SPEED_OF_LIGHT * g.l2 / (math.pi * g.f * g.w_o**2)
    turb = 2.0 * g.w_o**2 / coherence_length(g) ** 2
    return g.w_o * math.sqrt(1.0 + (1.0 + turb) * spread**2)


def _jitter(g: GeometryConfig) -> float:
    """Jitter variance 4 sigma_p^2 + 4 d_x^2 sigma_o^2 of the shape exponent."""
    return 4.0 * g.sigma_p**2 + 4.0 * g.d_x**2 * g.sigma_o**2


def _footprint(g: GeometryConfig) -> tuple[float, float]:
    """(rho_min, rho_max) of the beam footprint at (theta, phi); DomainError
    where sin(phi) cos(theta) = 0 (edge-on), which leaves rho_max unbounded."""
    theta, phi = g.theta, g.phi
    rho_y = math.cos(phi) ** 2 + math.sin(phi) ** 2 * math.cos(theta) ** 2
    rho_z = math.sin(phi) ** 2
    rho_yz = -math.cos(phi) * math.sin(phi) * math.sin(theta)
    disc = math.sqrt((rho_y - rho_z) ** 2 + 4.0 * rho_yz**2)
    denom_max = rho_y + rho_z - disc
    if denom_max <= 0.0:
        raise DomainError("degenerate footprint orientation: rho_max is unbounded "
                          f"(theta={theta}, phi={phi})")
    return 2.0 / (rho_y + rho_z + disc), 2.0 / denom_max


# largest v = (alpha / w) sqrt(pi / (2 rho)) for which exp(-v^2) is a
# normal float
_V_LIMIT = math.sqrt(709.0)


def misalignment_stats(g: GeometryConfig) -> MisalignmentStats:
    """Full deterministic chain from geometry to (B_o, zeta).

    Raises DegenerateJitter when 4 sigma_p^2 + 4 d_x^2 sigma_o^2 = 0:
    zeta is undefined there and the aligned analysis path applies.
    """
    w = beamwidth(g)
    rho_l2 = coherence_length(g)
    rho_min, rho_max = _footprint(g)

    v_min = g.alpha / w * math.sqrt(math.pi / (2.0 * rho_min))
    v_max = g.alpha / w * math.sqrt(math.pi / (2.0 * rho_max))
    jitter = _jitter(g)
    if jitter == 0.0:
        raise DegenerateJitter(
            "4 sigma_p^2 + 4 d_x^2 sigma_o^2 = 0: shape exponent undefined; "
            "use the no-misalignment path"
        )
    # v_min >= v_max; past sqrt(709) the factor exp(-v^2) of k underflows
    if not v_min <= _V_LIMIT:
        raise DomainError(
            f"aperture too large for the beam: v_min = {v_min:.6g} > {_V_LIMIT:.4g} "
            f"(alpha = {g.alpha}, w = {w:.6g}), the shape exponent overflows"
        )
    erf_min, erf_max = float(sc.erf(v_min)), float(sc.erf(v_max))
    b_o = erf_min * erf_max

    k_min = math.sqrt(math.pi) * rho_min * erf_min / (2.0 * v_min * math.exp(-v_min**2))
    k_max = math.sqrt(math.pi) * rho_max * erf_max / (2.0 * v_max * math.exp(-v_max**2))
    k_m = 0.5 * (k_min + k_max)

    zeta = k_m * w * w / jitter
    return MisalignmentStats(
        b_o=b_o,
        zeta=zeta,
        w_l2=w,
        rho_l2=rho_l2,
        v_min=v_min,
        v_max=v_max,
        rho_min=rho_min,
        rho_max=rho_max,
        k_min=k_min,
        k_max=k_max,
        k_m=k_m,
    )


def hg_pdf(s: MisalignmentStats, x) -> np.ndarray | float:
    """Density of the geometric loss h_g:
    (zeta/B_o) (x/B_o)^(zeta-1) on [0, B_o], zero elsewhere.

    For zeta < 1 the density diverges (integrably) at x = 0.
    """
    x_arr = np.asarray(x, dtype=float)
    if np.isnan(x_arr).any():
        raise DomainError("hg_pdf is undefined at x = NaN")
    inside = (x_arr >= 0.0) & (x_arr <= s.b_o)
    safe = np.where(inside, x_arr, s.b_o)  # keep the power on its domain
    with np.errstate(divide="ignore"):
        vals = (s.zeta / s.b_o) * (safe / s.b_o) ** (s.zeta - 1.0)
    out = np.where(inside, vals, 0.0)
    return out if out.ndim else float(out)


def sample_hg(
    s: MisalignmentStats, rng: np.random.Generator, size=None
) -> np.ndarray | float:
    """Inverse-CDF draw: B_o U^(1/zeta) with U uniform on (0, 1]."""
    u = 1.0 - rng.random(size=size)  # rng.random() is [0, 1); flip to (0, 1]
    out = s.b_o * u ** (1.0 / s.zeta)
    return out if np.ndim(out) else float(out)


def average_snr(lb: LinkBudget) -> float:
    """gamma = h_l^2 P_s / sigma_w^2 with h_l the two-hop spreading loss
    l1 dist1^(-n1/2) * l2 dist2^(-n2/2)."""
    h_l2 = (lb.l1**2 * lb.dist1 ** (-lb.n1)) * (lb.l2**2 * lb.dist2 ** (-lb.n2))
    return h_l2 * lb.p_s / lb.sigma_w2
