"""Batch command-line front end.

    ris-outage run <scenario> -o <dir> [--svg] [--mc] [--rate-threshold r]
    ris-outage run --selftest
    ris-outage report <scenario>

Exit codes: 0 success, 2 scenario parse error (or a bad
RIS_OUTAGE_THREADS), 3 numeric failure, 4 I/O failure.  --mc draws one
Monte Carlo sample set per curve from the stream seeded by the
scenario's mc seed.  Results are deterministic for a fixed scenario and
seed; RIS_OUTAGE_THREADS sets only the number of sampling threads,
never the numbers.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
from dataclasses import replace as dc_replace

from .errors import ConfigError, RisOutageError
from .scenario import load_scenario
from .svgplot import render_log_plot
from .sweep import CSV_HEADER, derived_report, evaluate_sweep

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _write_atomic(path: str, content: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except OSError:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _selftest(out=sys.stdout) -> int:
    """Dual-path and determinism spot checks; 0 iff everything agrees."""
    from .cascade import (
        cdf_A,
        _cdf_A_quadrature,
        _cdf_Ae2e_adaptive,
        _pdf_Ae2e_adaptive,
        cdf_Ae2e,
        cdf_Ae2e_quadrature,
        moment_match,
        pdf_Ae2e,
    )
    from .fading import from_nakagami, from_rice
    from .geometry import MisalignmentStats
    from .montecarlo import MCConfig, simulate_op
    from .outage import HardwareProfile

    failures = 0

    def check(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        print(f"  [{'ok' if ok else 'FAIL'}] {name}" + (f"  {detail}" if detail else ""), file=out)
        if not ok:
            failures += 1

    configs = [
        (from_nakagami(1.0), from_rice(10 ** 0.5), 4),
        (from_nakagami(2.5), from_rice(2.0), 2),
        (from_nakagami(0.8), from_nakagami(3.0), 16),
    ]
    stats = MisalignmentStats(
        b_o=0.55, zeta=3.5, w_l2=0.1, rho_l2=1.0, v_min=1.0, v_max=0.7,
        rho_min=1.0, rho_max=2.0, k_min=2.0, k_max=3.0, k_m=2.5,
    )
    for d1, d2, n in configs:
        kg = moment_match(d1, d2, n)
        worst_a = worst_e = 0.0
        for frac in (0.05, 0.2, 0.5, 1.0):
            x = frac * math.sqrt(kg.omega_a)
            worst_a = max(worst_a, abs(cdf_A(kg, x) - _cdf_A_quadrature(kg, x)))
            worst_e = max(
                worst_e,
                abs(cdf_Ae2e(kg, stats, x) - cdf_Ae2e_quadrature(kg, stats, x)),
            )
        check(f"dual-path cdf_A (N={n})", worst_a < 1e-6, f"max abs diff {worst_a:.2e}")
        check(f"dual-path cdf_Ae2e (N={n})", worst_e < 1e-6, f"max abs diff {worst_e:.2e}")

    d1, d2, n = configs[0]
    kg = moment_match(d1, d2, n)
    worst = 0.0
    for frac in (0.05, 0.5, 1.0):
        x = frac * math.sqrt(kg.omega_a)
        for fixed, adaptive in (
            (cdf_Ae2e_quadrature, _cdf_Ae2e_adaptive), (pdf_Ae2e, _pdf_Ae2e_adaptive)
        ):
            ref = adaptive(kg, stats, x)
            worst = max(worst, abs(fixed(kg, stats, x) - ref) / ref)
    check(f"fixed rule vs adaptive fallback (N={n})", worst < 1e-6, f"max rel diff {worst:.2e}")

    hw = HardwareProfile(0.1, 0.1)
    args = (d1, d2, n, stats, hw, 10.0, 1.0)
    est1 = simulate_op(*args, MCConfig(samples=200_000, seed=7, workers=1))
    est8 = simulate_op(*args, MCConfig(samples=200_000, seed=7, workers=8))
    check(
        "Monte Carlo worker invariance",
        est1.op_hat == est8.op_hat,
        f"{est1.op_hat} vs {est8.op_hat}",
    )
    print(("selftest passed" if failures == 0 else f"selftest FAILED ({failures})"), file=out)
    return EXIT_OK if failures == 0 else 1


def _cmd_run(args) -> int:
    if args.selftest:
        return _selftest()
    if args.scenario is None:
        print("error: a scenario file is required unless --selftest", file=sys.stderr)
        return EXIT_PARSE
    try:
        scn = load_scenario(args.scenario)
    except ConfigError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"cannot read scenario: {exc}", file=sys.stderr)
        return EXIT_IO
    if args.rate_threshold is not None:
        scn = dc_replace(scn, gamma_th=2.0 ** args.rate_threshold - 1.0)
    try:
        rows = evaluate_sweep(scn, with_mc=args.mc)
    except ConfigError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except RisOutageError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    try:
        os.makedirs(args.output, exist_ok=True)
        csv_path = os.path.join(args.output, "curve.csv")
        lines = [CSV_HEADER] + [row.csv_line() for row in rows]
        _write_atomic(csv_path, "\n".join(lines) + "\n")
        print(csv_path)
        if args.svg:
            series = [("exact", [r.op_exact for r in rows])]
            if any(r.op_asymptotic is not None for r in rows):
                series.append(("asymptotic", [r.op_asymptotic for r in rows]))
            if any(r.op_floor is not None for r in rows):
                series.append(("floor", [r.op_floor for r in rows]))
            if any(r.op_mc is not None for r in rows):
                series.append(("monte carlo", [r.op_mc for r in rows]))
            svg = render_log_plot(
                [r.sweep_value for r in rows],
                series,
                x_label=scn.sweep.variable,
            )
            svg_path = os.path.join(args.output, "curve.svg")
            _write_atomic(svg_path, svg)
            print(svg_path)
    except (OSError, ValueError) as exc:
        print(f"output failure: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _cmd_report(args) -> int:
    try:
        scn = load_scenario(args.scenario)
    except ConfigError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"cannot read scenario: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        report = derived_report(scn)
    except RisOutageError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    width = max(len(k) for k in report)
    for key, value in report.items():
        if isinstance(value, float):
            if value == math.inf:
                text = "infinity"
            else:
                text = f"{value:.10g}"
        else:
            text = str(value)
        print(f"{key:<{width}}  {text}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ris-outage",
        description="Outage curves for RIS-assisted UAV links.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="evaluate a sweep and write curve.csv")
    p_run.add_argument("scenario", nargs="?", help="scenario file")
    p_run.add_argument("-o", "--output", default=".", help="output directory")
    p_run.add_argument("--svg", action="store_true", help="also write curve.svg")
    p_run.add_argument("--mc", action="store_true", help="add Monte Carlo columns")
    p_run.add_argument(
        "--selftest", action="store_true", help="run the built-in oracle suite"
    )
    p_run.add_argument(
        "--rate-threshold",
        type=float,
        default=None,
        metavar="R",
        help="set gamma_th = 2^R - 1 from a spectral efficiency",
    )
    p_run.set_defaults(func=_cmd_run)

    p_report = sub.add_parser("report", help="print derived quantities")
    p_report.add_argument("scenario", help="scenario file")
    p_report.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
