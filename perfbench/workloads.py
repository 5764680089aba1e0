"""The workloads: their operations, one pass over them, and the checks
of what the operations produced.

An operation is one curve: one `ris-outage run` of a scenario, or one
function of the channel statistics on one abscissa grid.  Operations call the program through module attributes, so
the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import time
import xml.etree.ElementTree as ET

import numpy as np

import checks
import inputs
import reference


def _stable_seed(text: str) -> int:
    return int(hashlib.sha256(text.encode()).hexdigest()[:16], 16)


class Op:
    def __init__(self, name: str, points: int, call):
        self.name, self.points, self.call = name, points, call


class Report:
    """Per-operation problems plus the worst figures of the run."""

    def __init__(self):
        self.problems: dict[str, list[str]] = {}
        self.worst_ref_rel = 0.0
        self.worst_mc_z = 0.0

    def add(self, op: str, problems: list[str]) -> None:
        if problems:
            self.problems.setdefault(op, []).extend(problems)


# --- op_curves and op_curves_mc ---------------------------------------------


class CurveWorkload:
    def __init__(self, name: str, seed: int, root: str, workdir: str):
        self.mc = name == "op_curves_mc"
        make = inputs.op_curves_mc if self.mc else inputs.op_curves
        self.curves = make(seed, root)
        os.makedirs(workdir, exist_ok=True)
        self.ops = []
        for cname, spec, text in self.curves:
            path = os.path.join(workdir, f"{cname}.scenario")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            out = os.path.join(workdir, cname)
            args = ["run", path, "-o", out, "--mc" if self.mc else "--svg"]
            self.ops.append(Op(cname, int(spec["sweep"]["points"]), self._caller(args, out)))

    def _caller(self, args, out):
        def call():
            from ris_outage import cli

            for leaf in ("curve.csv", "curve.svg"):
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(os.path.join(out, leaf))
            sink = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    rc = cli.main(args)
            except (Exception, SystemExit) as exc:  # noqa: BLE001 - a failed operation
                return time.perf_counter() - t0, ("raised", repr(exc))
            elapsed = time.perf_counter() - t0
            files = []
            for leaf in ("curve.csv", "curve.svg"):
                try:
                    with open(os.path.join(out, leaf), "rb") as fh:
                        files.append(fh.read())
                except FileNotFoundError:
                    files.append(b"")
            return elapsed, (rc, *files)

        return call

    def check(self, outputs: dict) -> Report:
        report = Report()
        for cname, spec, text in self.curves:
            out = outputs[cname]
            if out[0] != 0:
                report.add(cname, [f"exit status {out[0]!r}: {out[1]!r}"[:300]])
                continue
            rc, csv, svg = out
            rows, problems = checks.parse_csv(csv.decode())
            values = inputs.sweep_values(spec)
            problems += checks.sweep_matches(rows, values)
            if problems:
                report.add(cname, problems)
                continue
            col = {c: [r[c] for r in rows] for c in checks.COLUMNS}
            for c in ("op_exact", "op_asymptotic", "op_floor", "op_mc"):
                problems += checks.in_unit_interval(c, col[c])

            points, exact_ref, floor_ref = _curve_references(spec)
            found, worst = checks.matches("op_exact", col["op_exact"], exact_ref)
            problems += found
            report.worst_ref_rel = max(report.worst_ref_rel, worst)
            problems += checks.matches("op_floor", col["op_floor"], floor_ref, rtol=1e-9)[0]
            problems += checks.saturates_past_ceiling(rows, [p["eff"] is None for p in points])
            problems += checks.asymptote_cells(col["op_exact"], col["op_asymptotic"])
            variable = spec["sweep"]["variable"]
            if variable == "gamma_over_gamma_th_db":
                problems += checks.monotone("op_exact", col["op_exact"], increasing=False)
                if not self.mc:  # MC curves sit in the bulk, below the high-SNR regime
                    problems += checks.asymptote_converges(col["op_exact"], col["op_asymptotic"])
            elif variable in ("gamma_th", "kappa", "sigma_p"):
                problems += checks.monotone("op_exact", col["op_exact"], increasing=True)

            if self.mc:
                n = int(spec["mc"]["samples"])
                problems += checks.mc_stderr(col["op_mc"], col["mc_stderr"], n)
                p_ref = _physical_op(spec, text, points, 2 * n)
                found, worst = checks.mc_agrees(col["op_mc"], n, p_ref, 2 * n)
                problems += found
                report.worst_mc_z = max(report.worst_mc_z, worst)
            else:
                problems += _svg_problems(svg)
            report.add(cname, problems)
        return report


def _curve_references(spec: dict):
    """Per sweep point: its inputs, the reference OP and the reference
    floor (None where the closed form is undefined).  The matched shapes
    and (B_o, zeta) come from the program's moment match and geometry."""
    from ris_outage import geometry
    from ris_outage.errors import DegenerateJitter

    hops = spec["fading"]
    kg = inputs.matched_law(hops["hop1"], hops["hop2"], int(spec["ris"]["n_elements"]))
    law = reference.MatchedLaw(kg.k_a, kg.m_a, kg.xi)
    points, exact_ref, floor_ref = [], [], []
    for v in inputs.sweep_values(spec):
        p = _point(spec, v)
        try:
            p["mis"] = (geometry.misalignment_stats(geometry.GeometryConfig(**p["geometry"]))
                        if p["geometry"] else None)
        except DegenerateJitter:
            p["mis"] = None
        points.append(p)
        mis, eff = p["mis"], p["eff"]
        if eff is None:
            exact_ref.append(1.0)
            floor_ref.append(1.0 if mis else None)
        elif mis is None:
            exact_ref.append(law.cdf(math.sqrt(eff / p["gamma"])))
            floor_ref.append(None)
        else:
            exact_ref.append(law.cdf_e2e(math.sqrt(eff / p["gamma"]), mis.b_o, mis.zeta))
            floor_ref.append(law.floor(mis.b_o, mis.zeta) if mis.zeta < 2.0 * law.m else None)
    return points, exact_ref, floor_ref


def _point(spec: dict, value: float) -> dict:
    """(gamma, gamma_th, kappa, geometry) of one sweep point, from the
    scenario grammar's description of each sweep variable."""
    link = spec.get("link", {})
    gamma = 10.0 ** (link["gamma_db"] / 10.0) if "gamma_db" in link else None
    gamma_th = 10.0 ** (link["gamma_th_db"] / 10.0) if "gamma_th_db" in link else link.get("gamma_th", 1.0)
    hw = spec["hardware"]
    kappa = (hw.get("kappa_s", 0.0), hw.get("kappa_d", 0.0))
    geo = dict(spec["geometry"]) if "geometry" in spec else None
    variable = spec["sweep"]["variable"]
    if variable == "gamma_over_gamma_th_db":
        gamma = gamma_th * 10.0 ** (value / 10.0)
    elif variable == "gamma_th":
        gamma_th = value
    elif variable == "kappa":
        kappa = (value, value)
    else:
        geo[variable] = value
    return {
        "gamma": gamma, "gamma_th": gamma_th, "kappa": kappa, "geometry": geo,
        "eff": reference.effective_threshold(gamma_th, *kappa),
    }


def _physical_op(spec: dict, text: str, points: list[dict], n_ref: int):
    """Outage fraction of n_ref draws of the physical channel per point;
    one set of draws serves every point of the curve."""
    rng = np.random.default_rng(_stable_seed(text))
    hops = spec["fading"]
    a = reference.sample_cascade(hops["hop1"], hops["hop2"], int(spec["ris"]["n_elements"]), rng, n_ref)
    t = 1.0 - rng.random(n_ref)
    out = []
    for p in points:
        if p["eff"] is None:
            out.append(1.0)
            continue
        gain = a if p["mis"] is None else a * (p["mis"].b_o * t ** (1.0 / p["mis"].zeta))
        out.append(float(np.count_nonzero(gain * gain * p["gamma"] <= p["eff"])) / n_ref)
    return out


def _svg_problems(svg: bytes) -> list[str]:
    try:
        root = ET.fromstring(svg)
    except ET.ParseError as exc:
        return [f"curve.svg does not parse: {exc}"]
    if not any(el.tag.endswith("polyline") for el in root.iter()):
        return ["curve.svg has no polyline"]
    return []


# --- channel statistics grids ------------------------------------------------

_DERIV_STEP = 1e-4
_DKW_SAMPLES = 200_000


class StatsWorkload:
    FUNCS = ("cdf_A", "pdf_A", "cdf_Ae2e", "pdf_Ae2e")

    def __init__(self, name: str, seed: int, root: str, workdir: str):
        from ris_outage import cascade, geometry

        self.sets = []
        self.ops = []
        for s in inputs.channel_stats(seed):
            kg = inputs.matched_law(s["hop1"], s["hop2"], s["n"])
            zeta = s["zeta"]
            if s["kind"] == "pole":
                zeta = 2.0 * kg.m_a
            elif s["kind"] == "integer":
                kg = _shift_shape(cascade, kg, s["integer_offset"])
            # only b_o and zeta enter the distribution of the loss
            mis = geometry.MisalignmentStats(
                b_o=s["b_o"], zeta=zeta, w_l2=0.1, rho_l2=1.0, v_min=1.0, v_max=1.0,
                rho_min=1.0, rho_max=1.0, k_min=1.0, k_max=1.0, k_m=1.0,
            )
            root_omega = math.sqrt(kg.omega_a)
            xs_a = [u * root_omega for u in inputs.GRID]
            xs_e = [x * s["b_o"] for x in xs_a]
            entry = {"name": s["name"], "kg": kg, "mis": mis, "xs_a": xs_a, "xs_e": xs_e}
            self.sets.append(entry)
            for func in self.FUNCS:
                xs = xs_e if func.endswith("e2e") else xs_a
                self.ops.append(Op(f"{s['name']}.{func}", len(xs), self._caller(func, kg, mis, xs)))

    @staticmethod
    def _caller(func, kg, mis, xs):
        def call():
            from ris_outage import cascade

            t0 = time.perf_counter()
            try:
                fn = getattr(cascade, func)
                if func.endswith("e2e"):
                    vals = tuple(float(fn(kg, mis, x)) for x in xs)
                else:
                    vals = tuple(float(fn(kg, x)) for x in xs)
            except Exception as exc:  # noqa: BLE001 - a failed operation
                return time.perf_counter() - t0, ("raised", repr(exc))
            return time.perf_counter() - t0, vals

        return call

    def check(self, outputs: dict) -> Report:
        from ris_outage import cascade

        report = Report()
        for s in self.sets:
            kg, mis = s["kg"], s["mis"]
            law = reference.MatchedLaw(kg.k_a, kg.m_a, kg.xi)
            refs = {
                "cdf_A": [law.cdf(x) for x in s["xs_a"]],
                "pdf_A": [law.pdf(x) for x in s["xs_a"]],
                "cdf_Ae2e": [law.cdf_e2e(x, mis.b_o, mis.zeta) for x in s["xs_e"]],
                "pdf_Ae2e": [law.pdf_e2e(x, mis.b_o, mis.zeta) for x in s["xs_e"]],
            }
            vals = {}
            for func in self.FUNCS:
                name = f"{s['name']}.{func}"
                out = outputs[name]
                if out and out[0] == "raised":
                    report.add(name, [f"raised {out[1]}"[:300]])
                    continue
                vals[func] = out
                problems = [f"{func}[{i}] = {v!r}" for i, v in enumerate(out) if not math.isfinite(v)]
                if func.startswith("cdf"):
                    problems += checks.in_unit_interval(func, out)
                    problems += checks.monotone(func, out, increasing=True)
                else:
                    problems += [f"{func}[{i}] = {v!r} < 0" for i, v in enumerate(out) if v < 0.0]
                found, worst = checks.matches(func, out, refs[func])
                report.worst_ref_rel = max(report.worst_ref_rel, worst)
                report.add(name, problems + found)

            rng = np.random.default_rng(_stable_seed(s["name"] + repr((kg.k_a, kg.m_a, mis.zeta))))
            for cdf, pdf, xs, idx, args, draws in (
                ("cdf_A", "pdf_A", s["xs_a"], range(len(s["xs_a"])), (kg,),
                 law.sample(rng, _DKW_SAMPLES)),
                ("cdf_Ae2e", "pdf_Ae2e", s["xs_e"], (0, len(s["xs_e"]) // 2, len(s["xs_e"]) - 1),
                 (kg, mis), law.sample(rng, _DKW_SAMPLES, mis.b_o, mis.zeta)),
            ):
                if cdf not in vals or pdf not in vals:
                    continue
                report.add(f"{s['name']}.{cdf}", checks.dkw(cdf, xs, vals[cdf], draws))
                fn = getattr(cascade, cdf)
                x = [xs[i] for i in idx]
                lo = [fn(*args, xi * (1.0 - _DERIV_STEP)) for xi in x]
                hi = [fn(*args, xi * (1.0 + _DERIV_STEP)) for xi in x]
                found = checks.derivative_matches(
                    f"{cdf}/{pdf}", x, lo, hi, [vals[pdf][i] for i in idx], _DERIV_STEP
                )
                report.add(f"{s['name']}.{pdf}", found)
        return report


def _shift_shape(cascade, kg, offset: float):
    """The matched law with k_a - m_a moved to an integer plus offset."""
    k = kg.m_a + max(1, round(kg.k_a - kg.m_a)) + offset
    m = kg.m_a
    xi = math.sqrt(k * m / kg.omega_a)
    moments = tuple(
        math.exp(math.lgamma(k + j) + math.lgamma(m + j) - math.lgamma(k) - math.lgamma(m)) / xi ** (2 * j)
        for j in (1, 2, 3)
    )
    return cascade.KGParams(k_a=k, m_a=m, xi=xi, omega_a=moments[0], n_elements=kg.n_elements,
                            moments2_4_6=moments)


class HeavyWorkload:
    """op_curves_mc: the Monte Carlo curves, then the channel statistics
    grids.  Alone, the single-threaded quadrature of the grids tracks the
    machine's contention (see README.md); behind 5 s of sampling per pass
    it is measured steadily, but as only about a sixth of the pass: the
    end-to-end bounds miss a quadrature change smaller than about 2x,
    which the trace's cascade.* layer times show."""

    def __init__(self, name: str, seed: int, root: str, workdir: str):
        self.parts = (CurveWorkload(name, seed, root, workdir),
                      StatsWorkload(name, seed, root, workdir))
        self.ops = [op for part in self.parts for op in part.ops]

    def check(self, outputs: dict) -> Report:
        report = Report()
        for part in self.parts:
            found = part.check(outputs)
            report.problems.update(found.problems)
            report.worst_ref_rel = max(report.worst_ref_rel, found.worst_ref_rel)
            report.worst_mc_z = max(report.worst_mc_z, found.worst_mc_z)
        return report


WORKLOADS = {
    "op_curves": CurveWorkload,
    "op_curves_mc": HeavyWorkload,
}
