"""Spans around the program's public functions, recorded from outside.

The tracer replaces each named function, wherever a ris_outage module has
bound it, with a wrapper that records (span id, parent id, name, start,
end) in memory; uninstall puts the originals back.  Spans opened on a
thread with no open span of its own (the sweep's pool workers) take the
main thread's innermost open span as parent, so a sweep's self time is
its span minus the union of its workers' spans.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time

PACKAGE = "ris_outage"
LAYERS = (
    "cli.main",
    "svgplot.render_log_plot",
    "sweep.evaluate_sweep",
    "cascade.moment_match",
    "geometry.misalignment_stats",
    "outage.op_exact",
    "outage.op_asymptotic",
    "outage.op_floor",
    "cascade.cdf_A",
    "cascade.cdf_Ae2e",
    "cascade.cdf_Ae2e_quadrature",
    "cascade.pdf_A",
    "cascade.pdf_Ae2e",
    "montecarlo.simulate_op",
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float, int]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        samples_of = _mc_samples if name == "montecarlo.simulate_op" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else 0)
            sid = next(self._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                units = samples_of(args, kwargs) if samples_of else 0
                self.spans.append((sid, parent, name, t0, t1, units))

        return wrapper

    def install(self) -> None:
        homes = {layer: importlib.import_module(f"{PACKAGE}.{layer.rsplit('.', 1)[0]}")
                 for layer in LAYERS}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for layer in LAYERS:
            original = getattr(homes[layer], layer.rsplit(".", 1)[1])
            wrapper = self._wrap(layer, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def take(self) -> list[tuple]:
        spans, self.spans = self.spans, []
        return spans


def _mc_samples(args, kwargs) -> int:
    cfg = kwargs.get("cfg", args[7] if len(args) > 7 else None)
    return int(getattr(cfg, "samples", 0))


def _union_length(intervals) -> float:
    total, end = 0.0, -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def summarize(spans) -> dict:
    """Per-layer totals of one traced pass: calls, s (summed over
    concurrent calls), wall_s (the union of the layer's spans), self_s,
    samples, and the number of cdf_A calls made inside the
    defining-integral route."""
    by_id = {s[0]: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, parent, name, t0, t1, units in spans:
        children.setdefault(parent, []).append((t0, t1))
    out: dict[str, dict] = {}
    inner_cdf = 0
    for sid, parent, name, t0, t1, units in spans:
        d = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "units": 0, "spans": []})
        d["calls"] += 1
        d["s"] += t1 - t0
        d["spans"].append((t0, t1))
        d["units"] += units
        kids = [(max(a, t0), min(b, t1)) for a, b in children.get(sid, ()) if b > t0 and a < t1]
        d["self_s"] += (t1 - t0) - _union_length(kids)
        if name == "cascade.cdf_A":
            p = parent
            while p in by_id:
                if by_id[p][2] == "cascade.cdf_Ae2e_quadrature":
                    inner_cdf += 1
                    break
                p = by_id[p][1]
    for d in out.values():
        d["wall_s"] = _union_length(d.pop("spans"))
    out["_inner_cdf_A"] = {"calls": inner_cdf}
    return out
