"""Sweep engine: evaluate a scenario over its sweep range.

Each sweep point yields the exact OP, the high-SNR approximation, the
closed-form floor (misaligned scenarios only), and optionally a Monte
Carlo estimate.  The closed forms are evaluated point by point in sweep
order.  The Monte Carlo column comes from one sample set per curve,
drawn from the stream seeded by the scenario's mc seed and shared by
every point; the worker threads inside the simulator change only how
fast it runs, never the numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .cascade import KGParams, moment_match
from .errors import (
    AsymptoteOutOfRegime,
    ConfigError,
    DegenerateJitter,
    DegenerateParameters,
    FloorUndefined,
    RisOutageError,
)
from .geometry import GeometryConfig, MisalignmentStats, misalignment_stats
from .montecarlo import CurvePoint, simulate_curve
from .outage import OutageScenario, max_threshold, op_asymptotic, op_exact, op_floor
from .scenario import ScenarioFile

__all__ = ["SweepRow", "evaluate_sweep", "derived_report"]

# the legend of each column that --svg plots, in column order
LEGENDS = {"op_exact": "exact", "op_asymptotic": "asymptotic", "op_floor": "floor",
           "op_mc": "monte carlo"}


@dataclass(frozen=True)
class SweepRow:
    sweep_value: float
    op_exact: float
    op_asymptotic: float | None
    op_floor: float | None
    op_mc: float | None
    mc_stderr: float | None
    flags: tuple[str, ...]

    def csv_line(self) -> str:
        def cell(v):
            if v is None:
                return ""
            return ";".join(v) if isinstance(v, tuple) else f"{v:.12g}"

        return ",".join(cell(getattr(self, name)) for name in COLUMNS)


# the curve's CSV columns, in order
COLUMNS = tuple(f.name for f in fields(SweepRow))
CSV_HEADER = ",".join(COLUMNS)


def _misalignment(geometry: GeometryConfig | None) -> tuple[MisalignmentStats | None, bool]:
    """(mis, aligned): the geometry's misalignment law, or None with
    aligned set where its jitter is degenerate."""
    if geometry is None:
        return None, False
    try:
        return misalignment_stats(geometry), False
    except DegenerateJitter:
        return None, True


def _eval_point(
    scn: ScenarioFile, kg: KGParams, value: float, mis_of: dict
) -> tuple[tuple, CurvePoint]:
    """One sweep point's closed-form cells (value, exact, asymptotic, floor,
    flags) and its Monte Carlo inputs.  mis_of caches _misalignment per geometry
    across a curve: a sweep that leaves the geometry alone takes it once."""
    hw, geometry, gamma, gamma_th = scn.point_inputs(value)
    if geometry not in mis_of:
        mis_of[geometry] = _misalignment(geometry)
    mis, aligned = mis_of[geometry]
    flags = ["aligned"] if aligned else []
    scenario = OutageScenario(kg=kg, hw=hw, gamma=gamma, gamma_th=gamma_th, mis=mis)
    exact = op_exact(scenario)
    asym = None
    try:
        asym = op_asymptotic(scenario)
    except (DegenerateParameters, AsymptoteOutOfRegime):
        flags.append("asymptote_undefined")
    floor = None
    if mis is not None:
        try:
            floor = op_floor(scenario)
        except FloorUndefined:
            flags.append("floor_undefined")
    return (value, exact, asym, floor, tuple(flags)), (mis, hw, gamma, gamma_th)


def evaluate_sweep(scn: ScenarioFile, with_mc: bool = False) -> list[SweepRow]:
    """Evaluate every sweep point: the closed forms point by point, then,
    with_mc set, the curve's Monte Carlo, and last each point's row, built
    here only.  A numeric failure at a point raises the original
    RisOutageError, before any sampling, with the offending sweep value
    appended to its arguments (and so to its message).  ConfigError where
    with_mc is set and the scenario has no mc block."""
    if with_mc and scn.mc is None:
        raise ConfigError("--mc needs an mc block in the scenario")
    kg = moment_match(scn.hop1, scn.hop2, scn.n_elements)
    closed: list[tuple] = []
    points: list[CurvePoint] = []
    mis_of: dict = {}
    for value in scn.sweep.values():
        try:
            cells, point = _eval_point(scn, kg, value, mis_of)
        except RisOutageError as exc:
            exc.args += (f"(at sweep point {scn.sweep.variable} = {value:g})",)
            raise
        closed.append(cells)
        points.append(point)
    mc = [(None, None, ())] * len(points)
    if with_mc:
        mc = [(est.op_hat, est.stderr, ("mc_tail",) if est.tail_flag else ())
              for est in simulate_curve(scn.hop1, scn.hop2, scn.n_elements, points, scn.mc)]
    return [SweepRow(value, exact, asym, floor, op_mc, stderr, flags + tail)
            for (value, exact, asym, floor, flags), (op_mc, stderr, tail) in zip(closed, mc)]


def derived_report(scn: ScenarioFile) -> dict:
    """Derived quantities a user should audit before sweeping."""
    kg = moment_match(scn.hop1, scn.hop2, scn.n_elements)
    out = {
        "hop1": scn.hop1.label,
        "hop2": scn.hop2.label,
        "n_elements": scn.n_elements,
        "k_a": kg.k_a,
        "m_a": kg.m_a,
        "xi": kg.xi,
        "omega_a": kg.omega_a,
        "gamma_th_max": max_threshold(scn.hardware),
    }
    mis, aligned = _misalignment(scn.geometry)
    if aligned:
        out["misalignment"] = "degenerate jitter (aligned path)"
    elif mis is not None:
        out.update(w_l2=mis.w_l2, rho_l2=mis.rho_l2, b_o=mis.b_o, zeta=mis.zeta, k_m=mis.k_m)
        scenario = OutageScenario(kg=kg, hw=scn.hardware, gamma=1.0, gamma_th=scn.gamma_th,
                                  mis=mis)
        try:
            out["floor"] = op_floor(scenario)
        except FloorUndefined as exc:
            out["floor"] = f"UNDEFINED ({exc.args[0]})"
    return out
