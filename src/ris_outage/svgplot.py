"""Minimal built-in SVG line plots (log-y), no plotting dependency."""

from __future__ import annotations

import math
import sys

__all__ = ["render_log_plot"]

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")

_W, _H = 640, 440
_ML, _MR, _MT, _MB = 70, 20, 30, 50


def _ticks_linear(lo: float, hi: float) -> list[float]:
    raw = (hi - lo) / 5
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    # at most 6 ticks fit, as step >= (hi - lo) / 5; by index, and capped,
    # so that no rounding of the step can stall or run on
    ticks = (first + i * step for i in range(8))
    return [t for t in ticks if t - hi <= 1e-12 * step]


def render_log_plot(
    x_values: list[float],
    series: list[tuple[str, list[float | None]]],
    *,
    x_label: str,
) -> str:
    """Return an SVG document plotting the series, outage probabilities,
    on a log-10 y axis.

    None entries and non-positive values are skipped (lines break there);
    a point with no drawn neighbour is drawn as a marker.
    With no positive value at all (every outage probability 0) the plot
    keeps its frame, x axis and legend, and says so where the lines would
    be.  ValueError when there is no x value.
    """
    if not x_values:
        raise ValueError("nothing to plot")
    ys = [
        v
        for _, data in series
        for v in data
        if v is not None and v > 0.0 and math.isfinite(v)
    ]
    if ys:
        y_lo = 10.0 ** math.floor(math.log10(min(ys)))
        y_hi = 10.0 ** math.ceil(math.log10(max(ys)))
        if y_hi <= y_lo:
            y_hi = y_lo * 10.0
        log_lo = math.log10(y_lo)
        log_span = math.log10(y_hi) - log_lo
    x_lo, x_hi = min(x_values), max(x_values)
    mid = x_lo / 2 + x_hi / 2
    if x_hi - x_lo <= 1e-9 * abs(mid):
        # one value, or too few ulps for distinct ticks: widen about the
        # centre by half its magnitude, within float range
        half = 0.5 * abs(mid) if abs(mid) >= sys.float_info.min else 0.5
        big = sys.float_info.max
        x_lo, x_hi = max(mid - half, -big), min(mid + half, big)

    def px(x: float) -> float:
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(y: float) -> float:  # called only when ys is not empty
        return _H - _MB - (math.log10(y) - log_lo) / log_span * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="11">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="black"/>',
    ]
    if ys:  # y grid: decades
        dec = int(log_lo)
        while dec <= math.log10(y_hi) + 1e-9:
            y = 10.0**dec
            parts.append(
                f'<line x1="{_ML}" y1="{py(y):.1f}" x2="{_W - _MR}" y2="{py(y):.1f}" '
                f'stroke="#dddddd"/>'
            )
            parts.append(
                f'<text x="{_ML - 6}" y="{py(y) + 4:.1f}" text-anchor="end">1e{dec}</text>'
            )
            dec += 1
    else:
        parts.append(
            f'<text x="{(_ML + _W - _MR) / 2:.1f}" y="{(_MT + _H - _MB) / 2:.1f}" '
            f'text-anchor="middle">no positive value to plot</text>'
        )
    for t in _ticks_linear(x_lo, x_hi):
        parts.append(
            f'<line x1="{px(t):.1f}" y1="{_H - _MB}" x2="{px(t):.1f}" '
            f'y2="{_H - _MB + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px(t):.1f}" y="{_H - _MB + 18}" text-anchor="middle">{t:g}</text>'
        )
    parts.append(
        f'<text x="{(_ML + _W - _MR) / 2:.1f}" y="{_H - 12}" '
        f'text-anchor="middle">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{(_MT + _H - _MB) / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {(_MT + _H - _MB) / 2:.1f})">outage probability</text>'
    )
    for i, (name, data) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        segments: list[list[str]] = [[]]
        for x, v in zip(x_values, data):
            if v is None or not (v > 0.0 and math.isfinite(v)):
                if segments[-1]:
                    segments.append([])
                continue
            segments[-1].append(f"{px(x):.2f},{py(max(min(v, y_hi), y_lo)):.2f}")
        for seg in segments:
            if len(seg) >= 2:
                parts.append(
                    f'<polyline points="{" ".join(seg)}" fill="none" '
                    f'stroke="{color}" stroke-width="1.5"/>'
                )
            elif seg:  # a lone point: a marker
                cx, cy = seg[0].split(",")
                parts.append(f'<circle cx="{cx}" cy="{cy}" r="2.5" fill="{color}"/>')
        ly = _MT + 16 + 16 * i
        parts.append(
            f'<line x1="{_W - _MR - 130}" y1="{ly}" x2="{_W - _MR - 105}" y2="{ly}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(f'<text x="{_W - _MR - 100}" y="{ly + 4}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
