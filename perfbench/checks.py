"""Checks of the program's outputs.  Each check returns a list of problems,
empty when it passes; none of them compares against a stored copy of
earlier output.  perfbench/test_checks.py shows that each one rejects a
deliberately wrong input."""

from __future__ import annotations

import math

import numpy as np

CSV_HEADER = "sweep_value,op_exact,op_asymptotic,op_floor,op_mc,mc_stderr,flags"
COLUMNS = CSV_HEADER.split(",")[:-1]
KNOWN_FLAGS = {"aligned", "asymptote_undefined", "floor_undefined", "mc_tail"}

# closed forms against the independent quadrature: both sides are good to
# ~1e-10 relative; the absolute floor only covers values below 1e-8
REF_RTOL = 1e-6
REF_ATOL = 1e-14
MC_Z_GATE = 4.0
# relative gap between exact OP and its high-SNR expansion at the highest
# SNR of a curve.  The generated curves end 20-30 dB above their first
# point, where the gap is below 5e-4 (and up to 7% at the first point);
# bundled aligned_elements ends at 15 dB with a gap of 1.1%
ASYMPTOTE_RTOL = 0.02
# Dvoretzky-Kiefer-Wolfowitz: sup |F_n - F| > eps with probability
# <= 2 exp(-2 n eps^2); this is that probability for one grid
DKW_ALPHA = 1e-6


def parse_csv(text: str) -> tuple[list[dict], list[str]]:
    """Rows of curve.csv as dicts of floats (None for empty cells)."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return [], [f"header is {lines[0] if lines else ''!r}"]
    rows, problems = [], []
    for i, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(COLUMNS) + 1:
            problems.append(f"line {i} has {len(cells)} cells")
            continue
        row: dict = {}
        for name, cell in zip(COLUMNS, cells):
            try:
                row[name] = float(cell) if cell else None
            except ValueError:
                problems.append(f"line {i} {name} = {cell!r}")
                row[name] = None
        row["flags"] = tuple(f for f in cells[-1].split(";") if f)
        unknown = set(row["flags"]) - KNOWN_FLAGS
        if unknown:
            problems.append(f"line {i} unknown flags {sorted(unknown)}")
        rows.append(row)
    return rows, problems


def sweep_matches(rows: list[dict], expected: list[float]) -> list[str]:
    if len(rows) != len(expected):
        return [f"{len(rows)} rows for {len(expected)} sweep points"]
    return [
        f"sweep value {r['sweep_value']!r} != {v!r}"
        for r, v in zip(rows, expected)
        if r["sweep_value"] is None or abs(r["sweep_value"] - v) > 1e-9 * max(1.0, abs(v))
    ]


def in_unit_interval(name: str, values) -> list[str]:
    return [
        f"{name}[{i}] = {v!r} outside [0, 1]"
        for i, v in enumerate(values)
        if v is not None and not (0.0 <= v <= 1.0)
    ]


def monotone(name: str, values, increasing: bool) -> list[str]:
    """Non-decreasing (or non-increasing) up to 1e-12 relative."""
    out = []
    for i in range(len(values) - 1):
        a, b = values[i], values[i + 1]
        lo, hi = (a, b) if increasing else (b, a)
        if hi < lo * (1.0 - 1e-12) - 1e-300:
            out.append(f"{name} not {'increasing' if increasing else 'decreasing'} at {i}: {a!r} -> {b!r}")
    return out


def matches(name: str, values, refs, rtol: float = REF_RTOL):
    """values against references -> (problems, worst relative difference)."""
    problems, worst = [], 0.0
    for i, (v, r) in enumerate(zip(values, refs)):
        if r is None and v is None:
            continue
        if r is None or v is None or not math.isfinite(v):
            problems.append(f"{name}[{i}] = {v!r}, reference {r!r}")
            continue
        diff = abs(v - r)
        worst = max(worst, diff / max(abs(r), REF_ATOL))
        if diff > REF_ATOL + rtol * abs(r):
            problems.append(f"{name}[{i}] = {v!r}, reference {r!r}")
    return problems, worst


def saturates_past_ceiling(rows: list[dict], past: list[bool]) -> list[str]:
    """OP = 1 where gamma_th is at or above 1/(kappa_s^2 + kappa_d^2)."""
    out = []
    for i, (row, p) in enumerate(zip(rows, past)):
        if p:
            for col in ("op_exact", "op_asymptotic", "op_floor"):
                if row[col] is not None and row[col] != 1.0:
                    out.append(f"{col}[{i}] = {row[col]!r} past the threshold ceiling")
    return out


def asymptote_cells(exact, asym) -> list[str]:
    """An expansion clamped to 0 while exact > 0, or to 1 while exact < 1,
    is not a valid cell."""
    out = []
    for i, (e, a) in enumerate(zip(exact, asym)):
        if a is None or e is None:
            continue
        if (a == 0.0 and e > 0.0) or (a == 1.0 and e < 1.0):
            out.append(f"op_asymptotic[{i}] = {a!r} clamped while op_exact = {e!r}")
    return out


def asymptote_converges(exact, asym) -> list[str]:
    """exact / asymptote -> 1 at the highest SNR of an SNR sweep."""
    e, a = exact[-1], asym[-1]
    if e is None or a is None or e >= 1.0:
        return []
    if not (a > 0.0 and abs(e / a - 1.0) <= ASYMPTOTE_RTOL):
        return [f"exact/asymptote = {e!r}/{a!r} at the highest SNR"]
    return []


def mc_stderr(p_hat, stderr, n: int) -> list[str]:
    """mc_stderr = sqrt(p (1 - p) / n)."""
    out = []
    for i, (p, s) in enumerate(zip(p_hat, stderr)):
        if p is None or s is None:
            out.append(f"mc cell {i} empty")
            continue
        want = math.sqrt(p * (1.0 - p) / n)
        if abs(s - want) > 1e-9 * want + 1e-15:
            out.append(f"mc_stderr[{i}] = {s!r}, sqrt(p(1-p)/n) = {want!r}")
    return out


def mc_agrees(p_hat, n: int, p_ref, n_ref: int):
    """Within MC_Z_GATE combined binomial standard errors -> (problems, worst |z|)."""
    problems, worst = [], 0.0
    for i, (p, q) in enumerate(zip(p_hat, p_ref)):
        if p is None:
            problems.append(f"op_mc[{i}] empty")
            continue
        var = p * (1.0 - p) / n + q * (1.0 - q) / n_ref
        z = 0.0 if p == q else (abs(p - q) / math.sqrt(var) if var > 0.0 else math.inf)
        worst = max(worst, z)
        if z > MC_Z_GATE:
            problems.append(f"op_mc[{i}] = {p!r} vs physical channel {q!r}: |z| = {z:.2f}")
    return problems, worst


def derivative_matches(name: str, x, f_lo, f_hi, pdf, rel_step: float) -> list[str]:
    """F' = f by central differences F(x(1 +- h))."""
    out = []
    for i, (xi, lo, hi, f) in enumerate(zip(x, f_lo, f_hi, pdf)):
        slope = (hi - lo) / (2.0 * rel_step * xi)
        if abs(slope - f) > 1e-4 * abs(f) + 1e-7 / xi:
            out.append(f"{name}: F' = {slope!r} but f = {f!r} at x = {xi!r}")
    return out


def dkw(name: str, x, cdf, samples: np.ndarray) -> list[str]:
    """Program CDF against the empirical CDF of n draws of the law."""
    n = len(samples)
    eps = math.sqrt(math.log(2.0 / DKW_ALPHA) / (2.0 * n))
    emp = np.searchsorted(np.sort(samples), np.asarray(x), side="right") / n
    gap = float(np.max(np.abs(emp - np.asarray(cdf))))
    return [f"{name}: sup |F_n - F| = {gap:.4f} > {eps:.4f}"] if gap > eps else []
