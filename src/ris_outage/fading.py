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

from .errors import DomainError, OverflowGuard, _is_int
from .special import _log_gen_k

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
# from_rice keeps terms until the Poisson tail it drops is at most this
_RICE_TAIL = 1e-20
_LOG_MAX = math.log(np.finfo(float).max)
# normals per slice of a Rice draw's second Gaussian: 64 KB stays under
# glibc malloc's 128 KB mmap threshold and in L2, so each slice reuses heap
# memory.  512 KB slices, mapped and faulted in afresh each time, made an
# 8192 x 4 chunk about 15% slower (2-CPU x86-64 host, glibc malloc).  A
# slice is a quarter of a Monte Carlo chunk's 2^15-pair array.
_NORMAL_SLICE = 1 << 13


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
    # linear K-factor of a from_rice law with k_r > 0: sample_envelope
    # then draws Rice directly
    rice_k: float | None = field(init=False, default=None, compare=False)

    def __post_init__(self):
        if not self.terms:
            raise DomainError("MGDistribution needs at least one term")
        if not (self.rate > 0 and math.isfinite(self.rate)):
            raise DomainError(f"rate must be positive, got {self.rate}")
        a = np.array([t[0] for t in self.terms], dtype=float)
        b = np.array([t[1] for t in self.terms], dtype=float)
        if (a <= 0).any() or (b <= 0).any():
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
    """Rice envelope (linear K-factor k_r, unit mean power) as the Poisson
    mixture of Gammas with b_k = k and rate = 1 + k_r, cut after
    max(n_terms, n*) terms.

    The k-th raw weight is delta(k) = k_r^(k-1) (1+k_r)^k /
    (e^(k_r) ((k-1)!)^2), and the cut drops P(Poisson(k_r) >= n) of the
    law.  n* is the smallest count that drops at most 1e-20, so the law
    is the Rice law to double precision: 5, 10 and 20 dB keep 32, 52 and
    207 terms, and below about -0.6 dB the default 20 already reach that
    tail.  The coefficients are normalized so the mixture integrates to
    one exactly.  The largest coefficient, near k = k_r + 1, is about
    e^(k_r - 0.84): OverflowGuard past k_r = log(float max) = 709.78
    (28.51 dB).  k_r > 0 is recorded as rice_k, so that sample_envelope
    draws Rice itself.
    """
    if k_r < 0 or not math.isfinite(k_r):
        raise DomainError(f"Rice K-factor must be finite and >= 0, got {k_r}")
    if not (_is_int(n_terms) and n_terms >= 1):
        raise DomainError(f"n_terms must be an integer >= 1, got {n_terms!r}")
    if k_r > _LOG_MAX:
        raise OverflowGuard(f"Rice K-factor {k_r:g}: mixture coefficients exceed float range")
    counts = np.arange(1.0, k_r + 12.0 * math.sqrt(k_r) + 40.0)
    n = max(n_terms, int(counts[sc.gammainc(counts, k_r) <= _RICE_TAIL][0]))
    rate = 1.0 + k_r
    # past e^2 rate and 373 terms every coefficient underflows to zero
    # (Stirling), so a larger n_terms adds nothing
    ks = np.arange(1.0, min(n, max(373, math.ceil(math.e**2 * rate))) + 1.0)
    # xlogy(0, 0) = 0: at k_r = 0 only the k = 1 term is left
    log_delta = sc.xlogy(ks - 1.0, k_r) + ks * math.log1p(k_r) - k_r - 2.0 * sc.gammaln(ks)
    # delta_k Gamma(k) rate^-k, summed in log space for large K-factors.
    # This is scipy.special.logsumexp's formula written out (the call cost
    # 0.13 ms): the n_top largest entries leave the sum and come back as
    # log1p(rest / n_top) + log(n_top).  It is not envelope_moment's plain
    # max/exp/sum, so that each keeps the digits it had.
    log_mass = log_delta + sc.gammaln(ks) - ks * math.log(rate)
    top = log_mass.max()
    at_top = log_mass == top
    rest = np.exp(log_mass - top)
    rest[at_top] = 0.0
    n_top = float(np.count_nonzero(at_top))
    log_denom = np.log1p(rest.sum() / n_top) + np.log(n_top) + top
    a = np.exp(log_delta - log_denom)
    terms = tuple((ai, k) for ai, k in zip(a.tolist(), ks.tolist()) if ai > 0.0)
    d = MGDistribution(terms=terms, rate=rate, label=f"rice(K={k_r:g}, terms={len(terms)})")
    if k_r > 0.0:
        object.__setattr__(d, "rice_k", float(k_r))
    return d


def envelope_pdf(d: MGDistribution, x) -> np.ndarray | float:
    """Density of the envelope at x >= 0 (vectorized).  Each term is
    formed from its log, so a large coefficient times x^(2b-1) cannot
    overflow before exp(-c x^2) brings it back into range."""
    x_arr = np.asarray(x, dtype=float)
    if not np.all((x_arr >= 0.0) & (x_arr < math.inf)):
        raise DomainError("envelope_pdf requires finite x >= 0")
    a, b = d.coeffs, d.shapes
    xx = x_arr[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(
            xx > 0,
            np.exp(np.log(2.0 * a) + (2.0 * b - 1.0) * np.log(xx) - d.rate * xx**2),
            # x = 0: only a b = 1/2 term contributes a finite nonzero value
            np.where(b == 0.5, 2.0 * a, 0.0),
        ).sum(axis=-1)
    return out if out.ndim else float(out)


def envelope_moment(d: MGDistribution, n) -> np.ndarray | float:
    """E[X^n] = sum_m a_m Gamma(b_m + n/2) rate^-(b_m + n/2), for every
    order in n at once (vectorized); OverflowGuard past float range."""
    n_arr = np.asarray(n, dtype=float)
    if not np.all((n_arr >= 0.0) & (n_arr < math.inf)):
        raise DomainError(f"moment order must be finite and >= 0, got {n}")
    b = d.shapes + n_arr[..., None] / 2.0
    log_terms = np.log(d.coeffs) + sc.gammaln(b) - b * math.log(d.rate)
    # written out: on a 7x20 array sc.logsumexp takes 0.10 ms, these three
    # lines 7 us (scipy 1.17, 2-CPU x86-64 host); from_rice keeps scipy's form
    top = log_terms.max(axis=-1)
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
    4 a1 a2 (c1/c2)^(-(b1-b2)/2) x^(b1+b2-1) K_(b1-b2)(2 sqrt(c1 c2) x),
    each formed from its log by special._log_gen_k, the kernel of pdf_A."""
    x_arr = np.asarray(x, dtype=float)
    if not np.all((x_arr > 0.0) & (x_arr < math.inf)):
        raise DomainError("product_pdf requires finite x > 0")
    b1, b2 = d1.shapes[:, None], d2.shapes[None, :]
    log_c = (
        math.log(4.0)
        + np.log(d1.coeffs)[:, None]
        + np.log(d2.coeffs)[None, :]
        - (b1 - b2) / 2.0 * math.log(d1.rate / d2.rate)
    )
    xx = x_arr[..., None, None]
    log_terms = _log_gen_k(log_c, b1, b2, math.sqrt(d1.rate * d2.rate), xx)
    out = np.exp(log_terms).sum(axis=(-2, -1))
    return out if out.ndim else float(out)


def sample_envelope(
    d: MGDistribution, rng: np.random.Generator, size=None
) -> np.ndarray | float:
    """Exact draw(s) of the envelope.

    A law with rice_k set, every from_rice law with k_r > 0, draws the
    Rice construction: the squared envelope is ((Z1 + sqrt(2K))^2 +
    Z2^2) / (2(1+K)) for standard normals Z1, Z2, formed in place
    (square-and-add: np.hypot costs ~5x more), ~2x cheaper than the
    mixture draw.  Z1 is drawn as the result; Z2 follows in _NORMAL_SLICE
    pieces, each squared and added in.  numpy fills a normal draw in
    order, so these are the bits and generator state of one
    standard_normal((2, *size)), while the call holds one size-shaped
    array.  A single-term law (Nakagami) draws its Gamma directly, at
    shape 1 as standard_exponential (the draws and generator state of
    standard_gamma(1.0), for less), and scales it in place.  Any other
    law, built by hand as an MGDistribution, picks a component by weight,
    looks up its shape b_m, draws standard_gamma(b_m) and scales it in
    place by 1/rate: the bits and generator state of gamma(b_m, 1/rate),
    with at most two size-shaped arrays held at once.  Monte Carlo draws
    (chunk, N) envelopes per hop at a time, so a chunk holds two such
    arrays, each of at most 2^15 pairs (256 KB) up to N = 32768 (see
    montecarlo._CHUNK_PAIRS).
    """
    if d.rice_k is not None:
        sq = rng.standard_normal(() if size is None else size)  # Z1
        sq += math.sqrt(2.0 * d.rice_k)
        sq *= sq
        flat = sq.reshape(-1)  # a view: sq is this call's own array
        for start in range(0, flat.size, _NORMAL_SLICE):
            z2 = rng.standard_normal(min(_NORMAL_SLICE, flat.size - start))
            z2 *= z2
            flat[start:start + z2.size] += z2
            del z2  # so the next slice is drawn with none other held
        sq /= 2.0 * d.rate
    elif len(d.terms) == 1:
        b = d.terms[0][1]
        sq = rng.standard_exponential(size) if b == 1.0 else rng.standard_gamma(b, size)
        sq /= d.rate  # in place for an array
    else:
        shape = d.shapes[rng.choice(len(d.weights), size=size, p=d.weights)]
        sq = rng.standard_gamma(shape)
        del shape  # the draw alone is held from here
        sq *= 1.0 / d.rate
    if np.ndim(sq):
        return np.sqrt(sq, out=sq)  # sq is this call's own array
    return float(np.sqrt(sq))
