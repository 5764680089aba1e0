"""Edge-regime and concurrency coverage on top of the per-module tests."""

import ast
import hashlib
import importlib
import math
import xml.etree.ElementTree as ET
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from conftest import make_stats
from ris_outage import (
    DomainError,
    cdf_Ae2e,
    cdf_Ae2e_quadrature,
    envelope_moment,
    envelope_pdf,
    from_nakagami,
    from_rice,
    hg_pdf,
    moment_match,
    pdf_A,
    pdf_Ae2e,
    parse_scenario,
    product_moment,
    product_pdf,
    sum_moments,
)
import ris_outage
from ris_outage import errors
from ris_outage.cascade import _cdf_A_quadrature
from ris_outage.special import _hyp1f2_diag
from ris_outage.svgplot import render_log_plot
from ris_outage.sweep import evaluate_sweep

RICE_5DB = 10.0 ** 0.5


class TestExtremeRegimes:
    def test_pdf_concentrated_loss(self):
        # zeta far beyond the shapes of A: the loss concentrates at B_o
        # and the density collapses onto the scaled cascade density
        from ris_outage import pdf_A

        p = moment_match(from_nakagami(1.0), from_rice(RICE_5DB, 20), 4)
        s = make_stats(0.7, 2e4)
        x = 0.6 * math.sqrt(p.omega_a) * s.b_o
        direct = float(pdf_A(p, x / s.b_o)) / s.b_o
        assert pdf_Ae2e(p, s, x) == pytest.approx(direct, rel=1e-3)

    @pytest.mark.parametrize("zeta", [900.0, 1e4, 1e5])
    def test_pdf_cdf_consistency_large_zeta(self, zeta):
        p = moment_match(from_nakagami(1.0), from_rice(RICE_5DB, 20), 4)
        s = make_stats(0.7, zeta)
        x = 0.5 * math.sqrt(p.omega_a) * s.b_o
        h = 1e-5 * x
        deriv = (
            cdf_Ae2e_quadrature(p, s, x + h) - cdf_Ae2e_quadrature(p, s, x - h)
        ) / (2.0 * h)
        assert pdf_Ae2e(p, s, x) == pytest.approx(deriv, rel=1e-4)

    def test_small_zeta_heavy_loss(self):
        # zeta < 1: loss density diverges at zero; CDF still proper
        p = moment_match(from_nakagami(1.0), from_rice(RICE_5DB, 20), 4)
        s = make_stats(0.8, 0.35)
        vals = [cdf_Ae2e(p, s, x) for x in (1e-4, 1e-2, 0.5, 5.0, 50.0)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[0] > 0.0
        assert vals[-1] == pytest.approx(1.0, abs=1e-6)
        assert abs(cdf_Ae2e(p, s, 0.5) - cdf_Ae2e_quadrature(p, s, 0.5)) < 1e-6

    def test_hyp1f2_terminating_negative_integer_a(self):
        # a = -3 terminates the series: a degree-3 polynomial in z
        val = _hyp1f2_diag(-3.0, 2.0, 3.0, 1.5)[0]
        brute = sum(
            math.prod((-3.0 + j) for j in range(n))
            / (math.prod((2.0 + j) for j in range(n)) * math.prod((3.0 + j) for j in range(n)))
            * 1.5**n
            / math.factorial(n)
            for n in range(4)
        )
        assert val == pytest.approx(brute, rel=1e-12)


class TestThreadSafety:
    def test_concurrent_evaluations_bit_identical(self):
        p = moment_match(from_nakagami(1.0), from_rice(RICE_5DB, 20), 16)
        s = make_stats(0.55, 3.43)
        xs = np.linspace(0.01, 2.0, 40)
        expected = [cdf_Ae2e(p, s, float(x)) for x in xs]

        def worker(x):
            return cdf_Ae2e(p, s, float(x))

        with ThreadPoolExecutor(max_workers=8) as pool:
            for _ in range(3):
                got = list(pool.map(worker, xs))
                assert got == expected


SWEEP_TEMPLATE = """
fading {
  hop1 { kind = nakagami  m = 1.0 }
  hop2 { kind = rice  k_r_db = 5.0  n_terms = 20 }
}
ris { n_elements = 4 }
geometry {
  l2 = 0.105  w_o = 1e-3  f = 100e9  cn2 = 2.3e-9  alpha = 0.1
  theta = 5.497787143782138  phi = 2.0943951023931953
  sigma_p = 0.05  sigma_o = 0.1  d_x = 0.1
}
hardware { kappa_s = 0.1  kappa_d = 0.1 }
link { gamma_db = 8.0  gamma_th = 1.0 }
sweep { variable = VAR  start = START  stop = STOP  points = 4 }
"""


class TestGeometrySweeps:
    @pytest.mark.parametrize(
        "var,start,stop",
        [("sigma_p", 0.0, 0.15), ("alpha", 0.02, 0.2), ("phi", 0.8, 2.2), ("l2", 0.05, 0.3)],
    )
    def test_each_geometry_variable_sweeps(self, var, start, stop):
        text = (
            SWEEP_TEMPLATE.replace("VAR", var)
            .replace("START", str(start))
            .replace("STOP", str(stop))
        )
        rows = evaluate_sweep(parse_scenario(text))
        assert len(rows) == 4
        assert all(0.0 <= r.op_exact <= 1.0 for r in rows)
        if var == "sigma_p":
            # first point has zero jitter with d_x*sigma_o > 0: still misaligned;
            # a fully degenerate point must flag the aligned path instead
            text0 = text.replace("sigma_o = 0.1", "sigma_o = 0.0")
            rows0 = evaluate_sweep(parse_scenario(text0))
            assert "aligned" in rows0[0].flags
            assert rows0[0].op_floor is None

    def test_kappa_sweep_rows(self):
        text = (
            SWEEP_TEMPLATE.replace("VAR", "kappa")
            .replace("START", "0.0")
            .replace("STOP", "0.3")
        )
        rows = evaluate_sweep(parse_scenario(text))
        # outage grows with the impairment level at fixed gamma
        ops = [r.op_exact for r in rows]
        assert all(b >= a - 1e-12 for a, b in zip(ops, ops[1:]))


class TestSvgEmitter:
    def test_basic_document(self):
        svg = render_log_plot(
            [0.0, 1.0, 2.0, 3.0],
            [("exact", [1e-1, 1e-2, 1e-3, 1e-4]),
             ("with gaps", [1e-1, None, 1e-3, 0.0])],
            x_label="ratio (dB)",
        )
        assert svg.startswith("<svg ")
        assert svg.count("polyline") >= 1
        assert "1e-4" in svg or "1e-3" in svg
        assert "ratio (dB)" in svg

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            render_log_plot([], [("empty", [])], x_label="x")

    # pure Python string formatting: these digests hold on any numpy/scipy
    X_PIN = [-10.0, -7.5, -5.0, -2.5, 0.0, 2.5, 5.0]

    def test_pinned_bytes(self):
        # four series, None gaps, a 0, and a top value one ulp above 1e-2,
        # whose log10 rounds to -2: y_hi = 1e-2 < value, so it is clamped
        series = [
            ("exact", [0.010000000000000002, 8e-3, 5e-3, 1e-3, 2e-4, 3e-5, 4e-6]),
            ("asymptotic", [9.5e-3, None, 6e-3, 1.2e-3, 2.1e-4, 3.3e-5, 4.2e-6]),
            ("floor", [1e-6] * 7),
            ("monte carlo", [9e-3, 7e-3, None, 0.0, 1.9e-4, None, 5e-6]),
        ]
        svg = render_log_plot(self.X_PIN, series, x_label="gamma_over_gamma_th_db")
        assert svg.count("<polyline ") == 4
        assert hashlib.sha256(svg.encode()).hexdigest() == (
            "dc980e09d1a2ec3ec55c74e0e5ab5055be030f3c6b1f0eaaeee05f8427108bc4"
        )

    def test_no_positive_value_keeps_frame_and_says_so(self):
        series = [("exact", [0.0] * 7), ("asymptotic", [None, 0.0] * 3 + [None])]
        svg = render_log_plot(self.X_PIN, series, x_label="gamma_over_gamma_th_db")
        root = ET.fromstring(svg)
        tags = [el.tag.rsplit("}", 1)[-1] for el in root.iter()]
        assert tags.count("rect") == 2 and "polyline" not in tags
        assert ">no positive value to plot<" in svg
        assert hashlib.sha256(svg.encode()).hexdigest() == (
            "50847c72d52ab3498ab52ea1ce6edc41e09d40d79b6b228725cea46b285f12dc"
        )


NAKA, RICE = from_nakagami(1.5), from_rice(RICE_5DB)
KG = moment_match(NAKA, RICE, 4)
STATS = make_stats(0.55, 3.5)


class TestArgumentContract:
    # every public density, CDF and moment gives a valid number or raises
    # DomainError: NaN, an infinite density argument and a non-integer
    # order or element count are refused, never priced as 0, nan or a
    # convergence failure
    @pytest.mark.parametrize(
        "call,arg",
        [
            (lambda x: envelope_pdf(NAKA, x), math.nan),
            (lambda x: envelope_pdf(RICE, x), [0.5, math.nan]),
            (lambda x: envelope_pdf(NAKA, x), math.inf),
            (lambda x: hg_pdf(STATS, x), math.nan),
            (lambda x: hg_pdf(STATS, x), [0.1, math.nan]),
            (lambda x: pdf_A(KG, x), math.nan),
            (lambda x: pdf_A(KG, x), math.inf),
            (lambda x: product_pdf(NAKA, RICE, x), math.nan),
            (lambda x: product_pdf(NAKA, RICE, x), [1.0, math.inf]),
            (lambda x: _cdf_A_quadrature(KG, x), math.nan),
            (lambda x: cdf_Ae2e_quadrature(KG, STATS, x), math.nan),
            (lambda x: pdf_Ae2e(KG, STATS, x), math.nan),
            (lambda n: envelope_moment(RICE, n), math.nan),
            (lambda n: envelope_moment(RICE, n), math.inf),
            (lambda n: product_moment(NAKA, RICE, n), [2.0, math.nan]),
            (lambda n: sum_moments(NAKA, RICE, 4, n), 2.5),
            (lambda n: sum_moments(NAKA, RICE, 4, n), math.inf),
            (lambda n: sum_moments(NAKA, RICE, n, 2), 2.5),
            (lambda n: moment_match(NAKA, RICE, n), 2.5),
            (lambda n: moment_match(NAKA, RICE, n), math.nan),
        ],
        ids=[
            "envelope_pdf-nan", "envelope_pdf-nan-in-array", "envelope_pdf-inf",
            "hg_pdf-nan", "hg_pdf-nan-in-array", "pdf_A-nan", "pdf_A-inf",
            "product_pdf-nan", "product_pdf-inf-in-array", "cdf_A_quadrature-nan",
            "cdf_Ae2e_quadrature-nan", "pdf_Ae2e-nan", "envelope_moment-nan",
            "envelope_moment-inf", "product_moment-nan-in-array", "sum_moments-order-2.5",
            "sum_moments-order-inf", "sum_moments-elements-2.5", "moment_match-elements-2.5",
            "moment_match-elements-nan",
        ],
    )
    def test_bad_argument_raises_domain_error(self, call, arg):
        with np.errstate(all="raise"), pytest.raises(DomainError):
            call(arg)


class TestErrorTaxonomy:
    def test_every_error_class_is_raised(self):
        # each RisOutageError subclass in errors.py is raised or constructed
        # somewhere in the package: a class that nothing raises is dead API
        subclasses = {
            name for name, obj in vars(errors).items()
            if isinstance(obj, type) and issubclass(obj, errors.RisOutageError)
            and obj is not errors.RisOutageError
        }
        used = set()
        for path in Path(errors.__file__).parent.rglob("*.py"):
            if path.name == "errors.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                target = node.func if isinstance(node, ast.Call) else (
                    node.exc if isinstance(node, ast.Raise) else None
                )
                if isinstance(target, ast.Name):
                    used.add(target.id)
        assert subclasses
        assert subclasses <= used, sorted(subclasses - used)


# the package's public names: a change to this set is a change of API
PUBLIC_NAMES = frozenset(
    [
        "AsymptoteOutOfRegime", "ConfigError", "DegenerateJitter",
        "DegenerateParameters", "DiversityReport", "DomainError", "FloorUndefined",
        "GeometryConfig", "HardwareProfile", "KGParams", "LinkBudget", "MCConfig",
        "MCEstimate", "MGDistribution", "MisalignmentStats", "MomentMatchFailure",
        "NoConvergence", "OutageScenario", "OverflowGuard", "RisOutageError",
        "ScenarioFile", "SweepRow", "SweepSpec", "average_snr", "beamwidth", "cdf_A",
        "cdf_Ae2e", "cdf_Ae2e_quadrature", "coherence_length", "derived_report",
        "diversity_order", "envelope_moment", "envelope_pdf", "evaluate_sweep",
        "from_nakagami", "from_rice", "hg_pdf", "load_scenario",
        "max_threshold", "misalignment_stats", "moment_match", "op_asymptotic",
        "op_exact", "op_floor", "parse_scenario", "pdf_A", "pdf_Ae2e",
        "product_moment", "product_pdf", "sample_envelope", "sample_hg",
        "simulate_cdf", "simulate_curve", "simulate_op", "sum_moments",
    ]
)
SUBMODULES = (
    "cascade", "cli", "errors", "fading", "geometry", "montecarlo", "outage",
    "scenario", "special", "svgplot", "sweep",
)


class TestPackageSurface:
    def test_package_exports_the_public_names_once(self):
        assert len(ris_outage.__all__) == len(set(ris_outage.__all__))
        assert set(ris_outage.__all__) == PUBLIC_NAMES

    def test_every_export_resolves(self):
        for name in ris_outage.__all__:
            assert getattr(ris_outage, name, None) is not None, name

    @pytest.mark.parametrize("name", SUBMODULES)
    def test_submodule_all_names_exist(self, name):
        module = importlib.import_module(f"ris_outage.{name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, missing
