"""Each output check must reject a deliberately wrong input.

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from ris_outage import cascade, fading  # noqa: E402

KG = cascade.moment_match(fading.from_nakagami(1.0), fading.from_rice(10.0**0.5), 4)
LAW = reference.MatchedLaw(KG.k_a, KG.m_a, KG.xi)
XS = [u * math.sqrt(KG.omega_a) for u in inputs.GRID]


def test_reference_agrees_with_program_and_rejects_scaled_op():
    prog = [cascade.cdf_A(KG, x) for x in XS]
    ref = [LAW.cdf(x) for x in XS]
    assert checks.matches("cdf", prog, ref)[0] == []
    assert checks.matches("cdf", [1.01 * v for v in prog], ref)[0]


def test_e2e_reference_rejects_scaled_pdf():
    mis = workloads.StatsWorkload("channel_stats", 0, ROOT, "").sets[0]["mis"]
    xs = [0.3 * x for x in XS]
    prog = [cascade.pdf_Ae2e(KG, mis, x) for x in xs[:4]]
    ref = [LAW.pdf_e2e(x, mis.b_o, mis.zeta) for x in xs[:4]]
    assert checks.matches("pdf", prog, ref)[0] == []
    assert checks.matches("pdf", [1.01 * v for v in prog], ref)[0]


def test_monotone_rejects_a_swapped_pair():
    curve = [1e-1, 1e-2, 1e-3, 1e-4]
    assert checks.monotone("op", curve, increasing=False) == []
    assert checks.monotone("op", [1e-1, 1e-3, 1e-2, 1e-4], increasing=False)
    assert checks.monotone("op", curve[::-1], increasing=True) == []
    assert checks.monotone("op", curve, increasing=True)


def test_unit_interval_rejects_values_outside():
    assert checks.in_unit_interval("op", [0.0, 0.5, 1.0, None]) == []
    assert checks.in_unit_interval("op", [1.0000001])
    assert checks.in_unit_interval("op", [-1e-300])


def test_mc_gate_rejects_a_five_sigma_shift():
    n, p = 1 << 16, [0.02, 0.01, 0.005]
    sigma = [math.sqrt(2.0 * q * (1.0 - q) / n) for q in p]
    assert checks.mc_agrees(p, n, p, n)[0] == []
    shifted = [q + 5.0 * s for q, s in zip(p, sigma)]
    problems, worst = checks.mc_agrees(shifted, n, p, n)
    assert problems and worst > checks.MC_Z_GATE


def test_mc_stderr_rejects_a_wrong_error_bar():
    n, p = 1000, [0.1, 0.5]
    good = [math.sqrt(q * (1.0 - q) / n) for q in p]
    assert checks.mc_stderr(p, good, n) == []
    assert checks.mc_stderr(p, [1.01 * s for s in good], n)


def test_clamped_asymptote_cells_are_rejected():
    assert checks.asymptote_cells([0.05, 1.0, 1e-3], [0.07, 1.0, None]) == []
    assert checks.asymptote_cells([0.05], [0.0])
    assert checks.asymptote_cells([0.998], [1.0])


def test_asymptote_must_converge_at_the_highest_snr():
    assert checks.asymptote_converges([1e-3, 1e-6], [2e-3, 1.001e-6]) == []
    assert checks.asymptote_converges([1e-3, 1e-6], [2e-3, 1.05e-6])


def test_ceiling_must_saturate():
    rows = [{"op_exact": 0.2, "op_asymptotic": 0.3, "op_floor": None},
            {"op_exact": 1.0, "op_asymptotic": 1.0, "op_floor": 1.0}]
    assert checks.saturates_past_ceiling(rows, [False, True]) == []
    rows[1]["op_exact"] = 0.999
    assert checks.saturates_past_ceiling(rows, [False, True])


def test_derivative_check_rejects_a_scaled_density():
    h = 1e-4
    x = XS[3:7]
    lo = [cascade.cdf_A(KG, v * (1 - h)) for v in x]
    hi = [cascade.cdf_A(KG, v * (1 + h)) for v in x]
    pdf = [cascade.pdf_A(KG, v) for v in x]
    assert checks.derivative_matches("A", x, lo, hi, pdf, h) == []
    assert checks.derivative_matches("A", x, lo, hi, [1.01 * f for f in pdf], h)


def test_dkw_rejects_a_shifted_cdf():
    draws = LAW.sample(np.random.default_rng(5), 200_000)
    cdf = [cascade.cdf_A(KG, x) for x in XS]
    assert checks.dkw("A", XS, cdf, draws) == []
    assert checks.dkw("A", XS, [min(1.0, c + 0.01) for c in cdf], draws)


def test_csv_shape_checks():
    good = checks.CSV_HEADER + "\n1,0.5,0.4,,,,\n2,0.25,0.2,,,,floor_undefined\n"
    rows, problems = checks.parse_csv(good)
    assert problems == [] and checks.sweep_matches(rows, [1.0, 2.0]) == []
    assert checks.sweep_matches(rows, [1.0, 2.0, 3.0])
    assert checks.parse_csv(good.replace("op_floor", "floor"))[1]
    assert checks.parse_csv(good.replace("floor_undefined", "surprise"))[1]


@pytest.fixture(scope="module")
def curve_run(tmp_path_factory):
    wl = workloads.CurveWorkload("op_curves", 0, ROOT, str(tmp_path_factory.mktemp("work")))
    keep = [i for i, op in enumerate(wl.ops) if op.name.startswith("gen09")]
    wl.curves = [wl.curves[i] for i in keep]
    wl.ops = [wl.ops[i] for i in keep]
    outputs = {op.name: op.call()[1] for op in wl.ops}
    return wl, outputs


def test_whole_curve_check_passes_and_rejects_one_scaled_cell(curve_run):
    wl, outputs = curve_run
    assert wl.check(outputs).problems == {}
    name = wl.ops[0].name
    rc, csv, svg = outputs[name]
    lines = csv.decode().splitlines()
    cells = lines[3].split(",")
    cells[1] = repr(1.01 * float(cells[1]))
    lines[3] = ",".join(cells)
    bad = {name: (rc, ("\n".join(lines) + "\n").encode(), svg)}
    assert name in wl.check(bad).problems
    assert name in wl.check({name: (rc, csv, b"<svg/>")}).problems
