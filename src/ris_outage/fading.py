"""Mixture-Gamma envelope distributions for the per-element channels.

An envelope X follows a mixture-Gamma law when its density is
f(x) = sum_m 2 a_m x^(2 b_m - 1) exp(-c x^2): equivalently X^2 is a
finite mixture of Gamma(b_m, rate=c) components with mixture weights
w_m = a_m Gamma(b_m) c^(-b_m).  Nakagami-m and Rice envelopes map onto
this family exactly / to arbitrary accuracy respectively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.special as sc

from .errors import DomainError, OverflowGuard

__all__ = [
    "MGDistribution",
    "from_nakagami",
    "from_rice",
    "envelope_pdf",
    "envelope_moment",
    "product_moment",
    "product_pdf",
    "sample_envelope",
]

_NORMALIZATION_TOL = 1e-9
_RICE_MAX_TERMS = 60  # factorial growth past float range beyond this
_RICE_DROPPED_MASS = 1e-2


@dataclass(frozen=True)
class MGDistribution:
    """Mixture-Gamma envelope law: (weight coefficient, shape) terms plus
    a common rate.  Immutable and safely shareable across threads."""

    terms: tuple[tuple[float, float], ...]
    rate: float
    label: str = ""
    # per-term a_m, b_m and mixture probabilities w_m, built once here
    coeffs: np.ndarray = field(init=False, repr=False, compare=False)
    shapes: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.terms:
            raise DomainError("MGDistribution needs at least one term")
        if not (self.rate > 0 and math.isfinite(self.rate)):
            raise DomainError(f"rate must be positive, got {self.rate}")
        a = np.array([t[0] for t in self.terms], dtype=float)
        b = np.array([t[1] for t in self.terms], dtype=float)
        if np.any(a <= 0) or np.any(b <= 0):
            raise DomainError("all term coefficients and shapes must be positive")
        w = a * np.exp(sc.gammaln(b) - b * math.log(self.rate))
        total = float(w.sum())
        if abs(total - 1.0) > _NORMALIZATION_TOL:
            raise DomainError(
                f"mixture does not normalize: sum a Gamma(b) rate^-b = {total!r}"
            )
        for name, arr in (("coeffs", a), ("shapes", b), ("weights", w / total)):
            arr.setflags(write=False)  # shared by every caller
            object.__setattr__(self, name, arr)

    def normalization_residual(self) -> float:
        b = self.shapes
        w = self.coeffs * np.exp(sc.gammaln(b) - b * math.log(self.rate))
        return float(abs(w.sum() - 1.0))


def from_nakagami(m: float, omega: float = 1.0) -> MGDistribution:
    """Single-term mixture equivalent to a Nakagami-m envelope with
    spread omega: a = (m/omega)^m / Gamma(m), b = m, rate = m/omega."""
    if not (m >= 0.5 and math.isfinite(m)):
        raise DomainError(f"Nakagami shape must be >= 0.5, got {m}")
    if not (omega > 0 and math.isfinite(omega)):
        raise DomainError(f"spread must be positive, got {omega}")
    rate = m / omega
    try:
        a = math.exp(m * math.log(rate) - sc.gammaln(m))
    except OverflowError:
        raise OverflowGuard(
            f"(m/omega)^m / Gamma(m) overflows at m = {m}, omega = {omega}"
        ) from None
    return MGDistribution(
        terms=((a, m),), rate=rate, label=f"nakagami(m={m:g}, omega={omega:g})"
    )


def from_rice(k_r: float, n_terms: int = 20) -> MGDistribution:
    """Rice envelope (linear K-factor k_r, unit mean power) approximated by
    an n_terms mixture with b_k = k and rate = 1 + k_r.

    The k-th raw weight is delta(k) = k_r^(k-1) (1+k_r)^k /
    (e^(k_r) ((k-1)!)^2); the returned coefficients are normalized so the
    mixture integrates to one exactly.  Truncation drops the weight
    P(Poisson(k_r) >= n_terms) of the exact law, which normalization
    would hide: DomainError where that exceeds 1e-2, naming the smallest
    n_terms that would do (20 terms hold up to k_r = 10.4 dB, 60 terms
    up to 16.4 dB).
    """
    if k_r < 0 or not math.isfinite(k_r):
        raise DomainError(f"Rice K-factor must be finite and >= 0, got {k_r}")
    if n_terms < 1:
        raise DomainError(f"n_terms must be >= 1, got {n_terms}")
    if n_terms > _RICE_MAX_TERMS:
        raise OverflowGuard(f"n_terms = {n_terms} would overflow factorial growth")
    dropped = float(sc.gammainc(n_terms, k_r))
    if dropped > _RICE_DROPPED_MASS:
        counts = np.arange(n_terms + 1, _RICE_MAX_TERMS + 1)
        enough = counts[sc.gammainc(counts, k_r) <= _RICE_DROPPED_MASS]
        hint = (
            f"n_terms >= {enough[0]} keeps it below {_RICE_DROPPED_MASS:g}"
            if enough.size
            else f"no n_terms <= {_RICE_MAX_TERMS} keeps it below {_RICE_DROPPED_MASS:g}"
        )
        raise DomainError(
            f"Rice K-factor {k_r:g} with n_terms = {n_terms} drops mixture weight "
            f"{dropped:.3g}; {hint}"
        )
    rate = 1.0 + k_r
    ks = np.arange(1, n_terms + 1, dtype=float)
    if k_r == 0.0:
        log_delta = np.where(ks == 1.0, 0.0, -np.inf)
    else:
        log_delta = (
            (ks - 1.0) * math.log(k_r)
            + ks * math.log1p(k_r)
            - k_r
            - 2.0 * sc.gammaln(ks)
        )
    # delta_k Gamma(k) rate^-k, summed in log space for large K-factors
    log_mass = log_delta + sc.gammaln(ks) - ks * math.log(rate)
    log_denom = sc.logsumexp(log_mass)
    a = np.exp(log_delta - log_denom)
    terms = tuple((float(ai), float(k)) for ai, k in zip(a, ks) if ai > 0.0)
    return MGDistribution(terms=terms, rate=rate, label=f"rice(K={k_r:g}, terms={n_terms})")


def envelope_pdf(d: MGDistribution, x) -> np.ndarray | float:
    """Density of the envelope at x >= 0 (vectorized)."""
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0):
        raise DomainError("envelope_pdf requires x >= 0")
    a, b = d.coeffs, d.shapes
    xx = x_arr[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(
            xx > 0,
            2.0 * a * xx ** (2.0 * b - 1.0) * np.exp(-d.rate * xx**2),
            # x = 0: only a b = 1/2 term contributes a finite nonzero value
            np.where(b == 0.5, 2.0 * a, 0.0),
        ).sum(axis=-1)
    return out if out.ndim else float(out)


def envelope_moment(d: MGDistribution, n) -> np.ndarray | float:
    """E[X^n] = sum_m a_m Gamma(b_m + n/2) rate^-(b_m + n/2), for every
    order in n at once (vectorized); OverflowGuard past float range."""
    n_arr = np.asarray(n, dtype=float)
    if np.any(n_arr < 0):
        raise DomainError(f"moment order must be >= 0, got {n}")
    b = d.shapes + n_arr[..., None] / 2.0
    log_terms = np.log(d.coeffs) + sc.gammaln(b) - b * math.log(d.rate)
    top = log_terms.max(axis=-1)  # sc.logsumexp costs ~0.14 ms a call here
    with np.errstate(over="ignore"):
        out = np.exp(top + np.log(np.exp(log_terms - top[..., None]).sum(axis=-1)))
    return _finite(out, "moment")


def product_moment(d1: MGDistribution, d2: MGDistribution, n) -> np.ndarray | float:
    """E[(|h||g|)^n] = E[|h|^n] E[|g|^n] for independent envelopes, for
    every order in n at once; strictly positive."""
    with np.errstate(over="ignore"):
        out = np.asarray(envelope_moment(d1, n) * envelope_moment(d2, n))
    return _finite(out, "product moment")


def _finite(out: np.ndarray, what: str) -> np.ndarray | float:
    if not np.all(np.isfinite(out)):
        raise OverflowGuard(f"{what} exceeds float range")
    return out if out.ndim else float(out)


def product_pdf(d1: MGDistribution, d2: MGDistribution, x) -> np.ndarray | float:
    """Density of chi = |h||g| at x > 0: a mixture of generalized-K terms,
    4 a1 a2 (c1/c2)^(-(b1-b2)/2) x^(b1+b2-1) K_(b1-b2)(2 sqrt(c1 c2) x)."""
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr <= 0):
        raise DomainError("product_pdf requires x > 0")
    a1, b1 = d1.coeffs, d1.shapes
    a2, b2 = d2.coeffs, d2.shapes
    c1, c2 = d1.rate, d2.rate
    scale = 2.0 * math.sqrt(c1 * c2)
    coef = (
        4.0
        * a1[:, None]
        * a2[None, :]
        * (c1 / c2) ** (-(b1[:, None] - b2[None, :]) / 2.0)
    )
    nu = b1[:, None] - b2[None, :]
    power = b1[:, None] + b2[None, :] - 1.0
    xx = x_arr[..., None, None]
    vals = coef * xx**power * sc.kv(nu, scale * xx)
    out = vals.sum(axis=(-2, -1))
    return out if out.ndim else float(out)


def sample_envelope(
    d: MGDistribution, rng: np.random.Generator, size=None
) -> np.ndarray | float:
    """Exact draw(s) from the mixture: pick a component by weight, draw
    the squared envelope from Gamma(b_m, rate) and take its square root.
    A single-term law (Nakagami) needs no pick and draws the Gamma
    directly."""
    if len(d.terms) == 1:
        sq = rng.standard_gamma(d.terms[0][1], size=size) / d.rate
    else:
        idx = rng.choice(len(d.weights), size=size, p=d.weights)
        sq = rng.gamma(shape=d.shapes[idx], scale=1.0 / d.rate)
    out = np.sqrt(sq)
    return out if np.ndim(out) else float(out)
