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

from dataclasses import dataclass, replace as dc_replace

from .cascade import KGParams, moment_match
from .errors import (
    AsymptoteOutOfRegime,
    DegenerateJitter,
    DegenerateParameters,
    FloorUndefined,
    RisOutageError,
)
from .geometry import misalignment_stats
from .montecarlo import CurvePoint, simulate_curve
from .outage import (
    HardwareProfile,
    OutageScenario,
    max_threshold,
    op_asymptotic,
    op_exact,
    op_floor,
)
from .scenario import ScenarioFile, _from_db

__all__ = ["SweepRow", "evaluate_sweep", "derived_report", "CSV_HEADER"]

CSV_HEADER = "sweep_value,op_exact,op_asymptotic,op_floor,op_mc,mc_stderr,flags"


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
        def fmt(v):
            return "" if v is None else f"{v:.12g}"

        return ",".join(
            [
                f"{self.sweep_value:.12g}",
                fmt(self.op_exact),
                fmt(self.op_asymptotic),
                fmt(self.op_floor),
                fmt(self.op_mc),
                fmt(self.mc_stderr),
                ";".join(self.flags),
            ]
        )


def _point_inputs(scn: ScenarioFile, value: float):
    """Resolve (hardware, geometry, gamma, gamma_th) for one sweep point."""
    hw = scn.hardware
    geometry = scn.geometry
    gamma_th = scn.gamma_th
    if scn.sweep.variable == "gamma_over_gamma_th_db":
        gamma = gamma_th * _from_db(value)
    else:
        gamma = scn.gamma
        if scn.sweep.variable == "gamma_th":
            gamma_th = value
        elif scn.sweep.variable == "kappa":
            hw = HardwareProfile(kappa_s=value, kappa_d=value)
        else:  # geometry sweeps
            geometry = dc_replace(geometry, **{scn.sweep.variable: value})
    return hw, geometry, gamma, gamma_th


def _eval_point(
    scn: ScenarioFile, kg: KGParams, value: float
) -> tuple[SweepRow, CurvePoint]:
    """Closed-form row of one sweep point, and the point's Monte Carlo
    inputs."""
    flags: list[str] = []
    hw, geometry, gamma, gamma_th = _point_inputs(scn, value)
    mis = None
    if geometry is not None:
        try:
            mis = misalignment_stats(geometry)
        except DegenerateJitter:
            flags.append("aligned")
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
    row = SweepRow(
        sweep_value=value,
        op_exact=exact,
        op_asymptotic=asym,
        op_floor=floor,
        op_mc=None,
        mc_stderr=None,
        flags=tuple(flags),
    )
    return row, (mis, hw, gamma, gamma_th)


def evaluate_sweep(scn: ScenarioFile, with_mc: bool = False) -> list[SweepRow]:
    """Evaluate every sweep point.  A numeric failure at a point raises
    the original RisOutageError with the offending sweep value appended
    to its arguments (and so to its message)."""
    kg = moment_match(scn.hop1, scn.hop2, scn.n_elements)
    rows: list[SweepRow] = []
    points: list[CurvePoint] = []
    for value in scn.sweep.values():
        try:
            row, point = _eval_point(scn, kg, value)
        except RisOutageError as exc:
            exc.args += (f"(at sweep point {scn.sweep.variable} = {value:g})",)
            raise
        rows.append(row)
        points.append(point)
    if not with_mc or scn.mc is None:
        return rows
    estimates = simulate_curve(scn.hop1, scn.hop2, scn.n_elements, points, scn.mc)
    return [
        dc_replace(
            row,
            op_mc=est.op_hat,
            mc_stderr=est.stderr,
            flags=row.flags + (("mc_tail",) if est.tail_flag else ()),
        )
        for row, est in zip(rows, estimates)
    ]


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
    if scn.geometry is not None:
        try:
            mis = misalignment_stats(scn.geometry)
        except DegenerateJitter:
            out["misalignment"] = "degenerate jitter (aligned path)"
        else:
            out.update(
                {
                    "w_l2": mis.w_l2,
                    "rho_l2": mis.rho_l2,
                    "b_o": mis.b_o,
                    "zeta": mis.zeta,
                    "k_m": mis.k_m,
                }
            )
            scenario = OutageScenario(
                kg=kg,
                hw=scn.hardware,
                gamma=1.0,
                gamma_th=min(scn.gamma_th, 1.0),
                mis=mis,
            )
            try:
                out["floor"] = op_floor(scenario)
            except FloorUndefined as exc:
                out["floor"] = f"UNDEFINED ({exc.args[0]})"
    return out
