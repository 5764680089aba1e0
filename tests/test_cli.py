import contextlib
import io
import math
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from conftest import MIXED_SIGMA_P_SWEEP, mp_cdf_A
from ris_outage import (
    ConfigError,
    GeometryConfig,
    HardwareProfile,
    RisOutageError,
    moment_match,
)
from ris_outage.cli import main
from ris_outage.scenario import SWEEP_VARIABLES, ScenarioParseError, parse_scenario
from ris_outage.sweep import CSV_HEADER, LEGENDS, evaluate_sweep

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")

MINIMAL = """
fading {
  hop1 { kind = nakagami  m = 1.0 }
  hop2 { kind = rice  k_r_db = 5.0  n_terms = 20 }
}
ris { n_elements = 4 }
hardware { kappa_s = 0.0  kappa_d = 0.0 }
sweep { variable = gamma_over_gamma_th_db  start = 0  stop = 10  points = 3 }
"""


class TestParser:
    def test_minimal_roundtrip(self):
        scn = parse_scenario(MINIMAL)
        assert scn.n_elements == 4
        assert scn.sweep.values() == [0.0, 5.0, 10.0]
        assert scn.geometry is None and scn.mc is None

    def test_bundled_scenarios_parse(self):
        for name in os.listdir(SCENARIO_DIR):
            if name.endswith(".scenario"):
                with open(os.path.join(SCENARIO_DIR, name)) as fh:
                    parse_scenario(fh.read())

    def test_unknown_sweep_variable(self):
        bad = MINIMAL.replace("gamma_over_gamma_th_db", "bandwidth")
        with pytest.raises(ScenarioParseError, match="sweep.variable"):
            parse_scenario(bad)

    def test_unknown_sweep_variable_lists_the_variables(self):
        with pytest.raises(ScenarioParseError) as info:
            parse_scenario(MINIMAL.replace("gamma_over_gamma_th_db", "bandwidth"))
        assert str(info.value) == (
            "unknown sweep variable 'bandwidth'; expected one of ('gamma_over_gamma_th_db',"
            " 'gamma_th', 'sigma_p', 'l2', 'alpha', 'phi', 'kappa') (field 'sweep')"
        )

    def test_missing_block_named_in_error(self):
        bad = MINIMAL.replace("ris { n_elements = 4 }", "")
        with pytest.raises(ScenarioParseError, match="ris"):
            parse_scenario(bad)

    @pytest.mark.parametrize("value", ["four", "1e400", "inf"])
    def test_bad_value_reports_line_and_field(self, value):
        bad = MINIMAL.replace("n_elements = 4", f"n_elements = {value}")
        with pytest.raises(ScenarioParseError, match="n_elements"):
            parse_scenario(bad)

    def test_unbalanced_braces(self):
        with pytest.raises(ScenarioParseError):
            parse_scenario(MINIMAL + "\nextra {\n")

    def test_geometry_sweep_requires_geometry(self):
        bad = MINIMAL.replace("gamma_over_gamma_th_db", "sigma_p").replace(
            "hardware {", "link { gamma_db = 5 }\nhardware {"
        )
        with pytest.raises(ScenarioParseError, match="geometry"):
            parse_scenario(bad)

    def test_bad_mc_workers(self):
        bad = MINIMAL + "mc { samples = 100  workers = abc }\n"
        with pytest.raises(ScenarioParseError, match="workers"):
            parse_scenario(bad)

    def test_integer_values_parse_exactly(self):
        # past 2^53 a float would round 2^53 + 1 to 2^53; 1e3 stays an integer
        scn = parse_scenario(MINIMAL + "mc { samples = 1e3  seed = 9007199254740993 }\n")
        assert (scn.mc.samples, scn.mc.seed) == (1000, 2 ** 53 + 1)

    def test_non_ratio_sweep_requires_gamma(self):
        bad = MINIMAL.replace("gamma_over_gamma_th_db", "gamma_th")
        with pytest.raises(ScenarioParseError, match="gamma_db"):
            parse_scenario(bad)

    @pytest.mark.parametrize(
        "old,new,match",
        [
            ("kappa_d = 0.0", "kappa_d = 0.0  n_elements = 4",
             r"unknown key 'n_elements' \(line 7, field 'hardware.n_elements'\)"),
            ("m = 1.0", "m = 1.0  n_terms = 20",
             r"unknown key 'n_terms' \(line 3, field 'fading.hop1.n_terms'\)"),
            ("ris {", "n_elements = 4\nris {",
             r"unknown key 'n_elements' \(line 6, field 'n_elements'\)"),
            ("ris {", "links { gamma_db = 5 }\nris {",
             r"unknown block 'links' \(line 6, field 'links'\)"),
            ("n_elements = 4", "n_elements = 4  mc { seed = 1 }",
             r"unknown block 'mc' \(line 6, field 'ris.mc'\)"),
        ],
        ids=["other_block_key", "other_hop_kind_key", "top_level_key",
             "unknown_block", "nested_block"],
    )
    def test_unknown_block_or_key(self, old, new, match):
        with pytest.raises(ScenarioParseError, match=match):
            parse_scenario(MINIMAL.replace(old, new, 1))

    @pytest.mark.parametrize(
        "old,new,message",
        [
            ("ris {", "ris", "dangling block name 'ris' (line 6)"),
            ("", "mc\n", "dangling block name 'mc' (line 9)"),
            ("ris {", "{", "'{' without a block name (line 6)"),
            ("", "ris { }\n", "duplicate block 'ris' (line 9)"),
            ("", "}\n", "unmatched '}' (line 9)"),
            ("", "mc {\n", "unclosed block at end of file"),
            ("n_elements = 4", "n_elements =\n4",
             "missing value for key 'n_elements' (line 6)"),
        ],
        ids=["name_then_pair", "name_at_end", "open_without_name", "duplicate_block",
             "unmatched_close", "unclosed_block", "value_on_next_line"],
    )
    def test_block_structure_errors(self, old, new, message):
        text = MINIMAL.replace(old, new, 1) if old else MINIMAL + new
        with pytest.raises(ScenarioParseError) as info:
            parse_scenario(text)
        assert str(info.value) == message

    def test_duplicate_key(self):
        bad = MINIMAL.replace("n_elements = 4", "n_elements = 4  n_elements = 16")
        match = r"duplicate key 'n_elements' \(line 6, field 'ris.n_elements'\)"
        with pytest.raises(ScenarioParseError, match=match):
            parse_scenario(bad)


class TestSweepEngine:
    @pytest.mark.parametrize("variable", SWEEP_VARIABLES)
    def test_point_inputs_move_only_the_swept_input(self, variable):
        text = MIXED_SIGMA_P_SWEEP.replace("variable = sigma_p", f"variable = {variable}")
        if variable == "gamma_over_gamma_th_db":
            text = text.replace("gamma_db = 8.0  ", "")
        scn = parse_scenario(text)
        own = (scn.hardware, scn.geometry, scn.gamma, scn.gamma_th)
        value = 0.125
        if variable == "gamma_over_gamma_th_db":
            moved = {2: scn.gamma_th * 10.0 ** (value / 10.0)}
        elif variable == "gamma_th":
            moved = {3: value}
        elif variable == "kappa":
            moved = {0: HardwareProfile(kappa_s=value, kappa_d=value)}
        else:
            moved = {1: GeometryConfig(**dict(vars(scn.geometry), **{variable: value}))}
        point = scn.point_inputs(value)
        assert len(point) == 4
        for i, (got, before) in enumerate(zip(point, own)):
            if i in moved:
                assert got == moved[i] != before, i
            else:
                assert got is before, i

    def test_rows_and_header_shape(self):
        scn = parse_scenario(MINIMAL)
        rows = evaluate_sweep(scn)
        assert len(rows) == 3
        assert CSV_HEADER.count(",") == rows[0].csv_line().count(",")
        # aligned scenario: no floor column values
        assert all(r.op_floor is None for r in rows)

    def test_mc_without_block_is_refused(self):
        # the library refuses, as the CLI does, rather than return rows
        # whose Monte Carlo cells are empty with no flag saying why
        with pytest.raises(ConfigError, match="^--mc needs an mc block in the scenario$"):
            evaluate_sweep(parse_scenario(MINIMAL), with_mc=True)

    def test_kappa_sweep_hits_numeric_guard(self):
        text = MINIMAL.replace(
            "sweep { variable = gamma_over_gamma_th_db  start = 0  stop = 10  points = 3 }",
            "link { gamma_db = 5 }\n"
            "sweep { variable = kappa  start = 0.5  stop = 1.5  points = 3 }",
        )
        scn = parse_scenario(text)
        with pytest.raises(Exception):
            evaluate_sweep(scn)

    def test_error_keeps_original_exception(self, monkeypatch):
        class TwoArgError(RisOutageError):
            def __init__(self, code, detail):
                super().__init__(code, detail)
                self.code = code

        def fail(_scenario):
            raise TwoArgError(7, "bad point")

        monkeypatch.setattr("ris_outage.sweep.op_exact", fail)
        with pytest.raises(TwoArgError) as info:
            evaluate_sweep(parse_scenario(MINIMAL))
        assert info.value.code == 7
        assert str(info.value) == (
            "7 bad point (at sweep point gamma_over_gamma_th_db = 0)"
        )

    def test_asymptote_out_of_regime_cells_are_empty(self):
        with open(os.path.join(SCENARIO_DIR, "distance_sweep.scenario")) as fh:
            rows = evaluate_sweep(parse_scenario(fh.read()))
        for row in rows:
            assert row.op_asymptotic is None
            assert "asymptote_undefined" in row.flags
            assert row.csv_line().split(",")[2] == ""
        with open(os.path.join(SCENARIO_DIR, "hardware_threshold_sweep.scenario")) as fh:
            rows = evaluate_sweep(parse_scenario(fh.read()))
        flagged = [r.sweep_value for r in rows if "asymptote_undefined" in r.flags]
        assert flagged == [5.0, 5.5]
        # past the ceiling 1/(0.3^2 + 0.3^2) the outage is certain, not clamped
        assert all(r.op_asymptotic == 1.0 for r in rows if r.sweep_value >= 6.0)


def run_cli(args):
    return main(args)


class TestCli:
    def test_run_writes_deterministic_csv(self, tmp_path):
        scn = os.path.join(SCENARIO_DIR, "aligned_elements.scenario")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(["run", scn, "-o", str(out1), "--mc"]) == 0
        assert run_cli(["run", scn, "-o", str(out2), "--mc"]) == 0
        b1 = (out1 / "curve.csv").read_bytes()
        assert b1 == (out2 / "curve.csv").read_bytes()
        assert b1.startswith(CSV_HEADER.encode())

    def test_thread_env_does_not_change_csv(self, tmp_path, monkeypatch):
        scn = os.path.join(SCENARIO_DIR, "aligned_elements.scenario")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("RIS_OUTAGE_THREADS", "1")
        run_cli(["run", scn, "-o", str(out1), "--mc"])
        monkeypatch.setenv("RIS_OUTAGE_THREADS", "4")
        run_cli(["run", scn, "-o", str(out2), "--mc"])
        assert (out1 / "curve.csv").read_bytes() == (out2 / "curve.csv").read_bytes()

    def test_thread_env_does_not_change_mixed_sweep_csv(self, tmp_path, monkeypatch):
        scn = tmp_path / "sigma_p.scenario"
        scn.write_text(MIXED_SIGMA_P_SWEEP)
        csv = []
        for threads in ("1", "2"):
            monkeypatch.setenv("RIS_OUTAGE_THREADS", threads)
            assert run_cli(["run", str(scn), "-o", str(tmp_path / threads), "--mc"]) == 0
            csv.append((tmp_path / threads / "curve.csv").read_bytes())
        assert csv[0] == csv[1]
        assert b"aligned" in csv[0].splitlines()[1]

    def test_bad_thread_env_exit_code(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("RIS_OUTAGE_THREADS", "abc")
        scn = os.path.join(SCENARIO_DIR, "aligned_elements.scenario")
        assert run_cli(["run", scn, "-o", str(tmp_path), "--mc"]) == 2
        assert "RIS_OUTAGE_THREADS" in capsys.readouterr().err
        assert not (tmp_path / "curve.csv").exists()

    def test_svg_output(self, tmp_path):
        scn = os.path.join(SCENARIO_DIR, "hardware_threshold_sweep.scenario")
        assert run_cli(["run", scn, "-o", str(tmp_path), "--svg"]) == 0
        svg = (tmp_path / "curve.svg").read_text()
        assert svg.startswith("<svg ") and "polyline" in svg

    def test_all_zero_curve_svg(self, tmp_path, capsys):
        # F_A underflows at every swept threshold for 4096 elements: the
        # all-zero curve is valid, and its plot says there is nothing positive
        with open(os.path.join(SCENARIO_DIR, "aligned_elements.scenario")) as fh:
            text = fh.read()
        scn = tmp_path / "many.scenario"
        scn.write_text(re.sub(r"n_elements = \d+", "n_elements = 4096", text))
        assert run_cli(["run", str(scn), "-o", str(tmp_path), "--svg"]) == 0
        assert capsys.readouterr().err == ""
        rows = (tmp_path / "curve.csv").read_text().splitlines()[1:]
        assert rows and {row.split(",")[1] for row in rows} == {"0"}
        svg = (tmp_path / "curve.svg").read_text()
        root = ET.fromstring(svg)
        assert any(el.tag.endswith("rect") and el.get("stroke") == "black" for el in root.iter())
        assert not any(el.tag.endswith("polyline") for el in root.iter())
        assert "no positive value" in svg

    def test_lone_point_svg(self, tmp_path):
        # a point with no drawn neighbour is a marker in its series colour
        scn = tmp_path / "one.scenario"
        scn.write_text(MINIMAL.replace("points = 3", "points = 1"))
        assert run_cli(["run", str(scn), "-o", str(tmp_path), "--svg"]) == 0
        header, row = (tmp_path / "curve.csv").read_text().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        plotted = [name for name in LEGENDS if cells[name]]
        root = ET.fromstring((tmp_path / "curve.svg").read_text())
        circles = [el for el in root.iter() if el.tag.endswith("circle")]
        fills = [el.get("fill") for el in circles]
        assert len(plotted) >= 2 and len(set(fills)) == len(fills) == len(plotted)
        # a one-value x axis is centred on its value
        assert {el.get("cx") for el in circles} == {"345.00"}

    def test_cached_parser_keeps_no_state(self, tmp_path):
        # the parser is built once per process: no flag of one call may
        # reach the next one
        scn = os.path.join(SCENARIO_DIR, "hardware_threshold_sweep.scenario")
        out = tmp_path / "out"
        assert run_cli(["run", scn, "-o", str(out), "--svg"]) == 0
        (out / "curve.svg").unlink()
        assert run_cli(["run", scn, "-o", str(out)]) == 0
        assert not (out / "curve.svg").exists()

        text = MINIMAL.replace("kappa_s = 0.0  kappa_d = 0.0", "kappa_s = 0.3  kappa_d = 0.3")
        own = tmp_path / "own.scenario"
        own.write_text(text + "link { gamma_th = 2 }\n")
        unit = tmp_path / "unit.scenario"
        unit.write_text(text + "link { gamma_th = 1 }\n")
        csv = {}
        for name, path, flags in (("own", own, []), ("unit", unit, []),
                                  ("flag", own, ["--rate-threshold", "1"]),
                                  ("after", own, [])):
            assert run_cli(["run", str(path), "-o", str(tmp_path / name), *flags]) == 0
            csv[name] = (tmp_path / name / "curve.csv").read_bytes()
        assert csv["flag"] == csv["unit"] != csv["own"]
        assert csv["after"] == csv["own"]

        with pytest.raises(SystemExit) as info:
            run_cli(["run", scn, "-o", str(out), "--no-such-flag"])
        assert info.value.code == 2
        assert run_cli(["run", scn, "-o", str(out)]) == 0

    def test_parse_error_exit_code_and_no_partial_output(self, tmp_path, capsys):
        bad = tmp_path / "bad.scenario"
        bad.write_text(MINIMAL.replace("points = 3", "points = -1"))
        out = tmp_path / "out"
        assert run_cli(["run", str(bad), "-o", str(out)]) == 2
        assert not (out / "curve.csv").exists()
        assert "points" in capsys.readouterr().err

    def test_misspelled_key_exit_code(self, tmp_path, capsys):
        # 'sigma_0' for 'sigma_o' must not run with the default sigma_o = 0
        scn = tmp_path / "typo.scenario"
        scn.write_text(MIXED_SIGMA_P_SWEEP.replace("sigma_o = 0.0", "sigma_0 = 0.1"))
        out = tmp_path / "out"
        assert run_cli(["run", str(scn), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert "unknown key 'sigma_0' (line 10, field 'geometry.sigma_0')" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (out / "curve.csv").exists()

    def test_chunk_size_is_not_a_key(self, tmp_path, capsys):
        # the Monte Carlo chunk size is fixed in montecarlo._CHUNK_SIZE
        scn = tmp_path / "chunk.scenario"
        scn.write_text(MIXED_SIGMA_P_SWEEP.replace("seed = 11", "seed = 11  chunk_size = 8192"))
        out = tmp_path / "out"
        assert run_cli(["run", str(scn), "-o", str(out), "--mc"]) == 2
        err = capsys.readouterr().err
        assert "unknown key 'chunk_size' (line 15, field 'mc.chunk_size')" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (out / "curve.csv").exists()

    def test_numeric_error_exit_code(self, tmp_path, capsys):
        text = MINIMAL.replace(
            "sweep { variable = gamma_over_gamma_th_db  start = 0  stop = 10  points = 3 }",
            "link { gamma_db = 5 }\n"
            "sweep { variable = kappa  start = 0.5  stop = 1.5  points = 3 }",
        )
        bad = tmp_path / "kappa.scenario"
        bad.write_text(text)
        assert run_cli(["run", str(bad), "-o", str(tmp_path)]) == 3
        assert "numeric" in capsys.readouterr().err

    def test_failed_self_check_exit_code(self, tmp_path, monkeypatch, capsys):
        # at -10 dB the misaligned points leave the series' regime, so
        # op_exact takes the quadrature twin, whose coarse rule is forced
        # to disagree with the fine one
        scn = tmp_path / "low_snr.scenario"
        scn.write_text(MIXED_SIGMA_P_SWEEP.replace("gamma_db = 8.0", "gamma_db = -10.0"))
        monkeypatch.setattr("ris_outage.cascade._E2E_NODES", (2, 16))
        out = tmp_path / "out"
        assert run_cli(["run", str(scn), "-o", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: cdf_Ae2e fixed rule failed its self-check")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (out / "curve.csv").exists()

    def test_oversized_aperture_exit_code(self, tmp_path, capsys):
        # alpha / w so large that exp(-v^2) underflows: one line, exit 3,
        # no traceback
        scn = tmp_path / "aperture.scenario"
        scn.write_text(MIXED_SIGMA_P_SWEEP.replace("alpha = 0.1", "alpha = 200.0"))
        out = tmp_path / "out"
        assert run_cli(["run", str(scn), "-o", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: aperture too large for the beam")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (out / "curve.csv").exists()

    @pytest.mark.parametrize(
        "command,old,new,message",
        [
            # past 4096 elements the closed forms' Bessel recurrence would
            # hang: the match is refused at once
            ("report", "n_elements = 4", "n_elements = 1e7", "exceeds 4096"),
            # E[|h|^6] ~ omega^3 leaves float range
            ("run", "m = 1.0 }", "m = 1.0  omega = 1e120 }", "float range"),
            # a matched moment vector whose shape roots are not both positive
            ("run", "m = 1.0 }\n  hop2 { kind = rice  k_r_db = 5.0",
             "m = 50.0 }\n  hop2 { kind = rice  k_r_db = 10.0", "non-positive shape root"),
        ],
        ids=["huge-n-elements", "huge-omega", "nonpositive-shape-root"],
    )
    def test_moment_failure_exit_code(self, tmp_path, command, old, new, message):
        scn = tmp_path / "bad.scenario"
        scn.write_text(MINIMAL.replace(old, new))
        args = [sys.executable, "-m", "ris_outage.cli", command, str(scn)]
        if command == "run":
            args += ["-o", str(tmp_path / "out")]
        proc = subprocess.run(args, capture_output=True, text=True, timeout=30)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("numeric failure: ") and message in proc.stderr
        assert proc.stderr.count("\n") == 1, proc.stderr
        assert not (tmp_path / "out").exists()

    def test_subnormal_beam_factor_leaves_stderr_empty(self, tmp_path):
        # alpha = 1e-154 makes B_o subnormal: the expansion's log terms
        # overflow with both signs, which is out of regime, not an error
        with open(os.path.join(SCENARIO_DIR, "misalignment_shape_sweep.scenario")) as fh:
            text = fh.read()
        scn = tmp_path / "subnormal.scenario"
        scn.write_text(text.replace("alpha = 0.1", "alpha = 1e-154", 1))
        out = tmp_path / "out"
        proc = subprocess.run([sys.executable, "-m", "ris_outage.cli", "run", str(scn),
                               "-o", str(out)], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0 and proc.stderr == ""
        rows = (out / "curve.csv").read_text().splitlines()[1:]
        assert len(rows) == 11
        assert all(row.endswith(",1,,,,,asymptote_undefined;floor_undefined") for row in rows)

    def test_threshold_sweep_below_float_square_root(self, tmp_path):
        # x = sqrt(gamma_th / gamma) ~ 1e-160: (xi x)^2 underflows inside
        # the fixed rule of F_A, which double Rayleigh (k_a = m_a) takes
        text = MINIMAL.replace("kind = rice  k_r_db = 5.0  n_terms = 20", "kind = nakagami  m = 1.0")
        text = text.replace("ris { n_elements = 4 }", "ris { n_elements = 1 }\nlink { gamma_db = 300 }")
        text = text.replace("variable = gamma_over_gamma_th_db  start = 0  stop = 10  points = 3",
                            "variable = gamma_th  start = 1e-290  stop = 1e-280  points = 5")
        scn = tmp_path / "tiny.scenario"
        scn.write_text(text)
        out = tmp_path / "out"
        proc = subprocess.run([sys.executable, "-m", "ris_outage.cli", "run", str(scn),
                               "-o", str(out)], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        rows = [r.split(",") for r in (out / "curve.csv").read_text().splitlines()[1:]]
        assert len(rows) == 5
        assert all(0.0 < float(r[1]) < 1e-300 for r in rows)

    def test_threshold_sweep_below_float_square_root_shape_one_half(self, tmp_path, capsys):
        # Nakagami(0.5) hops: the inner P(k_a, s/v) of the fixed rule leaves
        # the normal range.  The first cell is mpmath's F_A at the swept x
        # (about 2.352485098e-158) and at the matched shapes, to the 12
        # digits the CSV writes
        text = MINIMAL.replace("m = 1.0 }", "m = 0.5 }")
        text = text.replace("kind = rice  k_r_db = 5.0  n_terms = 20", "kind = nakagami  m = 0.5")
        text = text.replace("ris { n_elements = 4 }", "ris { n_elements = 1 }\nlink { gamma_db = 300 }")
        text = text.replace("variable = gamma_over_gamma_th_db  start = 0  stop = 10  points = 3",
                            "variable = gamma_th  start = 1e-290  stop = 1e-280  points = 3")
        scn = tmp_path / "tiny.scenario"
        scn.write_text(text)
        assert main(["run", str(scn), "-o", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""
        rows = (tmp_path / "out" / "curve.csv").read_text().splitlines()
        parsed = parse_scenario(text)
        kg = moment_match(parsed.hop1, parsed.hop2, 1)
        x = math.sqrt(parsed.sweep.values()[0] / parsed.gamma)
        assert rows[1].split(",")[1] == f"{float(mp_cdf_A(kg.k_a, kg.m_a, kg.xi, x)):.12g}"

    @pytest.mark.parametrize(
        "old,new,field",
        [
            ("m = 1.0 }", "m = 0.3 }", "fading.hop1"),
            ("m = 1.0 }", "m = 1.0  omega = -2 }", "fading.hop1"),
            # (m/omega)^m / Gamma(m) leaves float range
            ("m = 1.0 }", "m = 1e6 }", "fading.hop1"),
            ("n_terms = 20", "n_terms = 0", "fading.hop2"),
            # the Rice mixture coefficients leave float range past 28.51 dB
            ("k_r_db = 5.0", "k_r_db = 29", "fading.hop2"),
            ("kappa_s = 0.0", "kappa_s = 1.5", "hardware"),
            ("sweep {", "geometry { l2 = -5  w_o = 1e-3  f = 100e9  cn2 = 2.3e-9  "
             "alpha = 0.1  theta = 5.5  phi = 2.1  sigma_p = 0.05 }\nsweep {", "geometry"),
            # checked although run without --mc
            ("sweep {", "mc { samples = 100  workers = 0 }\nsweep {", "mc"),
            # a seed names one Philox key: -1 and 2^64 would wrap onto another
            ("sweep {", "mc { samples = 100  seed = -1 }\nsweep {", "mc"),
            ("sweep {", "mc { samples = 100  seed = 18446744073709551616 }\nsweep {", "mc"),
            ("sweep {", "link { gamma_th = 3  gamma_th_db = 0 }\nsweep {", "link"),
            ("sweep {", "link { gamma_th = 0 }\nsweep {", "link.gamma_th"),
            ("sweep {", "link { gamma_db = 4000 }\nsweep {", "link.gamma_db"),
            # finite ends whose difference, and so the step, overflows
            ("start = 0  stop = 10", "start = -1.7e308  stop = 1.7e308", "sweep"),
        ],
        ids=["nakagami-m", "nakagami-omega", "nakagami-huge-m", "rice-no-terms",
             "rice-past-float-range", "kappa-s", "geometry-l2",
             "mc-workers", "mc-negative-seed", "mc-seed-2-64", "two-thresholds",
             "zero-threshold", "gamma-db-overflow", "sweep-span-overflow"],
    )
    def test_out_of_domain_value_exit_code(self, tmp_path, old, new, field):
        scn = tmp_path / "bad.scenario"
        scn.write_text(MINIMAL.replace(old, new, 1))
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "ris_outage.cli", "run", str(scn), "-o", str(out)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("scenario error: "), proc.stderr
        assert f"field '{field}'" in proc.stderr
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "old,new,code",
        [
            # parsed values whose coherence length, beamwidth or jitter
            # leaves float range
            *[(f"{key} = {value}", f"{key} = {extreme}", 2)
              for key, value in (("l2", "5.0"), ("w_o", "1e-3"), ("f", "100e9"),
                                 ("cn2", "2.3e-9"))
              for extreme in ("1e300", "1e-300")],
            ("sigma_p = 0.05", "sigma_p = 1e300", 2),
            ("sigma_o = 0.0  d_x = 0.0", "sigma_o = 1e300  d_x = 1.0", 2),
            ("sigma_o = 0.0  d_x = 0.0", "sigma_o = 0.1  d_x = 1e300", 2),
            # an edge-on orientation, whose footprint rho_max is unbounded
            ("phi = 2.0943951023931953", "phi = 0", 2),
            # swept values: the same check at the sweep point
            ("gamma_th = 1.0 }\nsweep { variable = gamma_over_gamma_th_db  start = -10  stop = 10",
             "gamma_th = 1.0  gamma_db = 10 }\nsweep { variable = l2  start = 1  stop = 1e300", 3),
            ("gamma_th = 1.0 }\nsweep { variable = gamma_over_gamma_th_db  start = -10  stop = 10",
             "gamma_th = 1.0  gamma_db = 10 }\nsweep { variable = phi  start = -1  stop = 1", 3),
            # 10^(1e5) overflows: gamma is infinite at the second point
            ("stop = 10 ", "stop = 1e6 ", 3),
        ],
        ids=["l2-huge", "l2-tiny", "w_o-huge", "w_o-tiny", "f-huge", "f-tiny",
             "cn2-huge", "cn2-tiny", "sigma_p-huge", "sigma_o-huge", "d_x-huge", "phi-edge-on",
             "swept-l2-huge", "swept-phi-edge-on", "swept-db-huge"],
    )
    @pytest.mark.parametrize("command", ["run", "report"])
    def test_extreme_geometry_exit_code(self, tmp_path, capsys, command, old, new, code):
        with open(os.path.join(SCENARIO_DIR, "misalignment_shape_sweep.scenario")) as fh:
            text = fh.read()
        assert old in text
        scn = tmp_path / "extreme.scenario"
        scn.write_text(text.replace(old, new, 1))
        out = tmp_path / "out"
        args = ["run", str(scn), "-o", str(out)] if command == "run" else ["report", str(scn)]
        # report evaluates no sweep point, so a swept value cannot fail it
        expected = 0 if command == "report" and code == 3 else code
        assert run_cli(args) == expected
        err = capsys.readouterr().err
        if expected == 2:
            assert err.startswith("scenario error: ") and "field 'geometry'" in err
        elif expected == 3:
            assert err.startswith("numeric failure: ") and "at sweep point" in err
        assert err.count("\n") == (expected != 0)
        assert not (out / "curve.csv").exists()

    @pytest.mark.parametrize("rate", ["1e4", "inf", "nan", "-1", "0"])
    def test_bad_rate_threshold_exit_code(self, tmp_path, capsys, rate):
        scn = os.path.join(SCENARIO_DIR, "aligned_elements.scenario")
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            run_cli(["run", scn, "-o", str(out), f"--rate-threshold={rate}"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --rate-threshold: R must be finite and > 0" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_binary_scenario_exit_code(self, tmp_path, capsys):
        scn = tmp_path / "binary.scenario"
        scn.write_bytes(b"\xff\xfe\x00fading {")
        assert run_cli(["report", str(scn)]) == 2
        assert capsys.readouterr().err.startswith("scenario error: not UTF-8 text")

    def test_missing_file_exit_code(self, tmp_path):
        assert run_cli(["run", str(tmp_path / "nope.scenario"), "-o", str(tmp_path)]) == 4

    def test_report(self, capsys):
        scn = os.path.join(SCENARIO_DIR, "misalignment_shape_sweep.scenario")
        assert run_cli(["report", scn]) == 0
        out = capsys.readouterr().out
        assert "k_a" in out and "zeta" in out and "b_o" in out
        # divergent beam at these parameters: jitter exponent enormous,
        # closed-form floor invalid, and the report must say so
        assert "UNDEFINED (Gamma-argument condition violated)" in out

    def test_report_floor_is_run_floor_past_the_ceiling(self, tmp_path, capsys):
        # gamma_th = 3 lies past the hardware ceiling 1/(0.5^2 + 0.5^2) = 2:
        # report evaluates the floor at the scenario's own threshold, as run does
        text = (MINIMAL.replace("n_elements = 4", "n_elements = 16")
                .replace("kappa_s = 0.0  kappa_d = 0.0", "kappa_s = 0.5  kappa_d = 0.5")
                .replace("start = 0  stop = 10  points = 3", "start = 0  stop = 40  points = 3"))
        text += ("geometry { l2 = 10.0  w_o = 0.05  f = 100e9  cn2 = 2.3e-9  alpha = 0.1"
                 "  theta = 5.497787143782138  phi = 2.0943951023931953"
                 "  sigma_p = 0.05  sigma_o = 0.0  d_x = 0.0 }\n"
                 "link { gamma_th = 3 }\n")
        scn = tmp_path / "ceiling.scenario"
        scn.write_text(text)
        assert run_cli(["report", str(scn)]) == 0
        report = dict(line.split(None, 1) for line in capsys.readouterr().out.splitlines())
        assert run_cli(["run", str(scn), "-o", str(tmp_path / "out")]) == 0
        rows = (tmp_path / "out" / "curve.csv").read_text().splitlines()[1:]
        floors = {row.split(",")[3] for row in rows}
        assert floors == {"1"} and float(report["floor"]) == 1.0

    def test_report_infinite_ceiling(self, capsys):
        scn = os.path.join(SCENARIO_DIR, "aligned_elements.scenario")
        run_cli(["report", scn])
        assert "infinity" in capsys.readouterr().out

    def test_rate_threshold_flag(self, tmp_path):
        # impaired front end: the effective threshold depends on gamma_th,
        # so the spectral-efficiency flag must change the curve
        text = MINIMAL.replace("kappa_s = 0.0  kappa_d = 0.0",
                               "kappa_s = 0.3  kappa_d = 0.3")
        scn = tmp_path / "hw.scenario"
        scn.write_text(text)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_cli(["run", str(scn), "-o", str(out1)])
        run_cli(["run", str(scn), "-o", str(out2), "--rate-threshold", "1.0"])
        # 2^1 - 1 = 1 equals the default unit threshold: identical output
        assert (out1 / "curve.csv").read_bytes() == (out2 / "curve.csv").read_bytes()
        out3 = tmp_path / "c"
        run_cli(["run", str(scn), "-o", str(out3), "--rate-threshold", "2.0"])
        assert (out1 / "curve.csv").read_bytes() != (out3 / "curve.csv").read_bytes()

    def test_selftest_passes(self):
        # the report goes to sys.stdout as it is at the call, not at import
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            assert run_cli(["run", "--selftest"]) == 0
        assert sink.getvalue().endswith("selftest passed\n")

    def test_selftest_with_other_arguments_exit_code(self, tmp_path, capsys):
        # the selftest would drop the scenario and the flags, so it refuses them
        scn = tmp_path / "minimal.scenario"
        scn.write_text(MINIMAL)
        out = tmp_path / "out"
        argv = ["run", str(scn), "--selftest", "--mc", "--rate-threshold", "3", "-o", str(out)]
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == ("scenario error: --selftest takes no other argument, got a"
                                " scenario, -o, --mc, --rate-threshold\n")
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize(
        "old,new,flags,message",
        [
            ("sweep {", "link { gamma_th = 1.0  gamma_db = 50 }\nsweep {", [],
             "scenario error: gamma_db is not used: the gamma_over_gamma_th_db sweep sets"
             " gamma (line 8, field 'link.gamma_db')"),
            ("sweep { variable = gamma_over_gamma_th_db  start = 0  stop = 10",
             "link { gamma_db = 10 }\nsweep { variable = gamma_th  start = 0.5  stop = 2",
             ["--rate-threshold", "1.0"],
             "scenario error: --rate-threshold is not used: the gamma_th sweep sets gamma_th"),
            ("", "", ["--mc"], "scenario error: --mc needs an mc block in the scenario"),
        ],
        ids=["gamma-db-on-ratio-sweep", "rate-threshold-on-threshold-sweep", "mc-without-block"],
    )
    def test_ignored_input_exit_code(self, tmp_path, capsys, old, new, flags, message):
        # an input the run would not use is refused, never silently dropped
        scn = tmp_path / "ignored.scenario"
        scn.write_text(MINIMAL.replace(old, new, 1))
        out = tmp_path / "out"
        assert run_cli(["run", str(scn), "-o", str(out), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err == message + "\n" and captured.out == ""
        assert not out.exists()

    def test_console_script_entry(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ris_outage.cli", "run", "--selftest"],
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "selftest passed" in proc.stdout

    def test_import_leaves_out_adaptive_integrator(self):
        code = "import sys, ris_outage, ris_outage.cli; print('scipy.integrate' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestBundledScenariosComplete:
    @pytest.mark.parametrize(
        "name",
        [n for n in sorted(os.listdir(SCENARIO_DIR)) if n.endswith(".scenario")],
    )
    def test_scenario_completes(self, name, tmp_path):
        assert run_cli(["run", os.path.join(SCENARIO_DIR, name), "-o", str(tmp_path)]) == 0
        lines = (tmp_path / "curve.csv").read_text().strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) > 1
