"""Monte Carlo oracle: full per-snapshot channel simulation.

simulate_curve is the one sampler and counter: its count closure draws
every snapshot and counts the threshold crossings of every point.
simulate_op is simulate_curve on a one-point curve, and simulate_cdf is
simulate_curve on the points (mis, ideal hardware, gamma = 1, x^2), where
the instantaneous SNR is the squared gain.  Samples are generated in
chunks of a size fixed by N, each chunk owning an independent random stream
derived from (seed, chunk_index), so estimates are a pure function of
the inputs and the seed: worker count and scheduling never change the
result.  The chunks are the only unit of parallelism: numpy's samplers
release the interpreter lock, so worker threads overlap there.  A chunk
holds two (chunk, N) float arrays at its peak, the product of the hops
so far and the next hop's draw, so its size is set in envelope pairs:
_CHUNK_PAIRS // N snapshots, at most _CHUNK_SIZE and at least one.  Each
array then stays at or under 256 KB up to N = 32768, and the pool keeps
at most two chunks per worker in flight.  A chunk keeps one squared gain
and one SNR array, those of its last misalignment law, so a curve's
memory grows neither with its sample count nor with its number of laws
nor, up to that N, with N.
"""

from __future__ import annotations

import math
import os
from collections import deque
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, _is_int
from .fading import MGDistribution, sample_envelope
from .geometry import MisalignmentStats
from .outage import HardwareProfile

__all__ = ["MCConfig", "MCEstimate", "simulate_op", "simulate_curve", "simulate_cdf"]

# one point of an outage curve: (mis, hw, gamma, gamma_th)
CurvePoint = tuple[MisalignmentStats | None, HardwareProfile, float, float]

# a chunk holds at most _CHUNK_SIZE snapshots and _CHUNK_PAIRS envelope
# pairs (snapshots x N): the pair bound takes over past N = 4.  A
# 65536-sample curve splits into 8 or more chunks that every worker
# shares.  On one worker 8192 x 4 drew as fast per sample as 65536 x 4 or
# faster; 1024 x 4 was over 30% slower, from per-chunk overhead.  Fixed
# 8192-snapshot chunks peaked at 569 MB RSS per worker at N = 4096; 2^15
# pairs keep each of a chunk's two arrays at 256 KB.  Each chunk has its
# own (seed, chunk) stream, so these sizes fix the samples drawn; the
# worker count never changes them.
_CHUNK_SIZE = 1 << 13
_CHUNK_PAIRS = 1 << 15


@dataclass(frozen=True)
class MCConfig:
    """Sample count, stream seed and worker threads.  With
    workers="auto" the RIS_OUTAGE_THREADS environment variable, if set,
    gives the worker count, else min(8, cpu count)."""

    samples: int
    seed: int = 0
    workers: int | str = "auto"

    def __post_init__(self):
        if not (_is_int(self.samples) and self.samples >= 1):
            raise ConfigError(f"samples must be an integer >= 1, got {self.samples!r}")
        if not (_is_int(self.seed) and 0 <= self.seed < 1 << 64):
            raise ConfigError(f"seed must be an integer in [0, 2^64), got {self.seed!r}")
        if self.workers != "auto" and not (_is_int(self.workers) and self.workers >= 1):
            raise ConfigError(f"workers must be 'auto' or an integer >= 1, got {self.workers!r}")

    def resolved_workers(self) -> int:
        if self.workers != "auto":
            return self.workers
        env = os.environ.get("RIS_OUTAGE_THREADS")
        if not env:
            return min(8, os.cpu_count() or 1)
        try:
            n = int(env)
        except ValueError:
            n = 0
        if n < 1:
            raise ConfigError(f"RIS_OUTAGE_THREADS must be an integer >= 1, got {env!r}")
        return n


@dataclass(frozen=True)
class MCEstimate:
    """Estimated outage probability with binomial standard error.

    tail_flag is set when fewer than ~10 outage events can be resolved at
    this sample count: the estimate cannot certify such tails.
    """

    op_hat: float
    stderr: float
    n: int
    tail_flag: bool = False


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    # splittable derivation: stream is a pure function of (seed, index)
    return np.random.Generator(
        np.random.Philox(key=np.uint64(seed), counter=[0, 0, 0, chunk_index])
    )


def _chunk_sizes(total: int, n_elements: int) -> Iterator[int]:
    size = max(1, min(_CHUNK_SIZE, _CHUNK_PAIRS // n_elements))
    for start in range(0, total, size):
        yield min(size, total - start)


def _chunk_counts(
    cfg: MCConfig, n_elements: int, count: Callable[[np.random.Generator, int], np.ndarray]
) -> np.ndarray:
    """Sum over the chunks of cfg at n_elements of count(rng, n), an
    integer array, with each chunk on its own stream.  Integer sums do not
    depend on the order in which the workers finish.  The pool starts at
    most one thread per chunk, so a one-chunk curve runs on one thread.
    At most two chunks per worker wait or run at once: each pending chunk
    costs ~1.9 KB of pool bookkeeping (its future, work item and generator),
    so submitting all of them would grow a curve's memory with its sample
    count, by ~235 MB for 10^6 samples at N = 4096 (125000 chunks)."""
    workers = cfg.resolved_workers()
    total, pending = 0, deque()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for index, n in enumerate(_chunk_sizes(cfg.samples, n_elements)):
            pending.append(pool.submit(count, _chunk_rng(cfg.seed, index), n))
            if len(pending) > 2 * workers:
                total = total + pending.popleft().result()
        while pending:
            total = total + pending.popleft().result()
    return total


def _row_sums(x: np.ndarray) -> np.ndarray:
    """x.sum(axis=1) of a C-ordered (n, N) array, bit for bit.  Below 8
    columns numpy adds them left to right, so this does too, one column
    pass at a time, where numpy's reduction pays per row; from 8 up
    numpy sums pairwise and is called as it is."""
    if x.shape[1] >= 8:
        return x.sum(axis=1)
    out = x[:, 0].copy()
    for j in range(1, x.shape[1]):
        out += x[:, j]
    return out


def _estimate(hits: int, n: int) -> MCEstimate:
    p_hat = hits / n
    return MCEstimate(
        op_hat=p_hat,
        stderr=math.sqrt(p_hat * (1.0 - p_hat) / n),
        n=n,
        tail_flag=hits < 10,
    )


def simulate_curve(
    d1: MGDistribution,
    d2: MGDistribution,
    n_elements: int,
    points: Sequence[CurvePoint],
    cfg: MCConfig,
) -> list[MCEstimate]:
    """Estimate P(gamma_u <= gamma_th) at every (mis, hw, gamma, gamma_th)
    point of a curve from one shared sample set (common random numbers).

    Per snapshot: draw the N envelope pairs, then one uniform u if any
    point is misaligned, and form gain = A or A B_o u^(1/zeta) and the
    instantaneous SNR/SDNR
        gamma_u = gain^2 / (kappa^2 gain^2 + 1/gamma)
    (conditionally exact in the distortions, so none are drawn).  Every
    point counts its threshold crossings on the same snapshots, so a curve
    whose event grows along the sweep gives non-decreasing estimates.
    Point j's estimate equals simulate_op at that point with the same cfg.
    A point needs 0 < gamma < inf and gamma_th >= 0 (0 and inf allowed).
    """
    if not (_is_int(n_elements) and n_elements >= 1):
        raise ConfigError(f"n_elements must be an integer >= 1, got {n_elements!r}")
    if not points:
        raise ConfigError("points is empty")
    for _, _, gamma, gamma_th in points:
        if not (0.0 < gamma < math.inf and gamma_th >= 0.0):
            raise ConfigError(
                f"a point needs 0 < gamma < inf and gamma_th >= 0, "
                f"got gamma = {gamma!r}, gamma_th = {gamma_th!r}"
            )
    misaligned = any(mis is not None for mis, _, _, _ in points)

    def count(rng: np.random.Generator, n: int) -> np.ndarray:
        # cascade gains A = sum_i |h_i||g_i|, g multiplied into h in place:
        # a chunk's two (n, N) arrays dominate its memory
        hg = sample_envelope(d1, rng, (n, n_elements))
        hg *= sample_envelope(d2, rng, (n, n_elements))
        a = _row_sums(hg)
        u = 1.0 - rng.random(size=n) if misaligned else None
        snr_key = g2 = gamma_u = None
        hits = np.empty(len(points), dtype=np.int64)
        for j, (mis, hw, gamma, gamma_th) in enumerate(points):
            k2 = hw.kappa_sq_sum
            # only the last squared gain and SNR array are kept: a run of
            # points with one law shares the first, a gamma_th sweep both
            if (mis, k2, gamma) != snr_key:
                if snr_key is None or mis != snr_key[0]:
                    gain = a if mis is None else a * (mis.b_o * u ** (1.0 / mis.zeta))
                    g2 = gain * gain
                # ideal hardware: 0 g2 + 1/gamma is 1/gamma for finite g2
                denom = 1.0 / gamma if k2 == 0.0 else k2 * g2 + 1.0 / gamma
                gamma_u, snr_key = g2 / denom, (mis, k2, gamma)
            hits[j] = np.count_nonzero(gamma_u <= gamma_th)
        return hits

    hits = _chunk_counts(cfg, n_elements, count)
    return [_estimate(int(h), cfg.samples) for h in hits]


def simulate_op(
    d1: MGDistribution,
    d2: MGDistribution,
    n_elements: int,
    mis: MisalignmentStats | None,
    hw: HardwareProfile,
    gamma: float,
    gamma_th: float,
    cfg: MCConfig,
) -> MCEstimate:
    """Estimate P(gamma_u <= gamma_th) for the full channel model at one
    point: simulate_curve on a one-point curve."""
    return simulate_curve(d1, d2, n_elements, [(mis, hw, gamma, gamma_th)], cfg)[0]


def simulate_cdf(
    d1: MGDistribution,
    d2: MGDistribution,
    n_elements: int,
    mis: MisalignmentStats | None,
    grid,
    cfg: MCConfig,
) -> list[tuple[float, float, float]]:
    """Empirical CDF of A (or A_e2e when misaligned) on a grid, from one
    shared sample set.  Returns (x, cdf_hat, stderr) per grid point: with
    ideal hardware at unit SNR gamma_u = A_e2e^2, so this is
    simulate_curve at the thresholds x^2."""
    grid = np.asarray(grid, dtype=float)
    if not (np.all(np.diff(grid) > 0) and np.all(grid >= 0)):
        raise ConfigError("grid must be strictly increasing and nonnegative")
    points = [(mis, HardwareProfile(), 1.0, x * x) for x in grid]
    estimates = simulate_curve(d1, d2, n_elements, points, cfg)
    return [(float(x), est.op_hat, est.stderr) for x, est in zip(grid, estimates)]
