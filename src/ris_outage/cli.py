"""Batch command-line front end.

    ris-outage run <scenario> -o <dir> [--svg] [--mc] [--rate-threshold r]
    ris-outage run --selftest
    ris-outage report <scenario>

Exit codes: 0 success, 2 a bad scenario value, flag or
RIS_OUTAGE_THREADS, 3 numeric failure, 4 I/O failure.  --mc draws one
Monte Carlo sample set per curve from the stream seeded by the
scenario's mc seed.  Results are deterministic for a fixed scenario and
seed; RIS_OUTAGE_THREADS sets only the number of sampling threads,
never the numbers.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import tempfile
from dataclasses import replace as dc_replace

from .errors import ConfigError, RisOutageError
from .scenario import SWEPT_INPUT, load_scenario
from .svgplot import render_log_plot
from .sweep import CSV_HEADER, LEGENDS, derived_report, evaluate_sweep

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


def _selftest(out=None) -> int:
    """Dual-path and determinism spot checks, printed to out (sys.stdout
    at the call when None); 0 iff everything agrees."""
    out = sys.stdout if out is None else out
    from .cascade import (
        _cdf,
        _cdf_A_quadrature,
        cdf_Ae2e_quadrature,
        moment_match,
        pdf_Ae2e,
    )
    from .fading import from_nakagami, from_rice
    from .geometry import MisalignmentStats
    from .montecarlo import MCConfig, simulate_op
    from .outage import HardwareProfile

    failures = 0

    def check(name: str, ok: bool, detail: str) -> None:
        nonlocal failures
        print(f"  [{'ok' if ok else 'FAIL'}] {name}  {detail}", file=out)
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
    # each line compares the points where the router keeps the series
    # with the quadrature twin, and fails when there are none
    for d1, d2, n in configs:
        kg = moment_match(d1, d2, n)
        for name, mis, quad in (
            ("cdf_A", None, lambda x: _cdf_A_quadrature(kg, x)),
            ("cdf_Ae2e", stats, lambda x: cdf_Ae2e_quadrature(kg, stats, x)),
        ):
            worst, engaged = 0.0, 0
            for frac in (0.05, 0.2, 0.5, 1.0):
                x = frac * math.sqrt(kg.omega_a)
                f = _cdf(kg, mis, x)
                if f.series:
                    engaged += 1
                    worst = max(worst, abs(f.value - quad(x)))
            check(
                f"dual-path {name} (N={n})",
                engaged > 0 and worst < 1e-6,
                f"max abs diff {worst:.2e} over {engaged} pts",
            )

    # differences the quadrature twin: h = 1e-4 would amplify the ~1e-10
    # error of the series at x = 0.5 sqrt(omega_a) ~5000x, to the bound.
    # The twin is F_A(x/B_o) + (x/zeta) pdf_Ae2e(x), so this checks
    # F_A' = f_A (_cdf_A_quadrature against pdf_A) through that identity
    d1, d2, n = configs[0]
    kg = moment_match(d1, d2, n)
    worst = 0.0
    h = 1e-4
    for frac in (0.05, 0.5, 1.0):
        x = frac * math.sqrt(kg.omega_a)
        deriv = (
            cdf_Ae2e_quadrature(kg, stats, x * (1 + h))
            - cdf_Ae2e_quadrature(kg, stats, x * (1 - h))
        ) / (2 * h * x)
        worst = max(worst, abs(pdf_Ae2e(kg, stats, x) - deriv) / deriv)
    check(
        f"pdf_Ae2e vs central difference of cdf_Ae2e_quadrature (N={n})",
        worst < 1e-6,
        f"max rel diff {worst:.2e}",
    )

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
        extra = [name for name, given in (
            ("a scenario", args.scenario is not None), ("-o", args.output != "."),
            ("--svg", args.svg), ("--mc", args.mc), ("--rate-threshold", args.gamma_th is not None),
        ) if given]
        if extra:
            raise ConfigError(f"--selftest takes no other argument, got {', '.join(extra)}")
        return _selftest()
    if args.scenario is None:
        raise ConfigError("a scenario file is required unless --selftest")
    scn = load_scenario(args.scenario)
    if args.gamma_th is not None:
        if SWEPT_INPUT[scn.sweep.variable] == "gamma_th":
            raise ConfigError(scn.sweep.unused("--rate-threshold"))
        scn = dc_replace(scn, gamma_th=args.gamma_th)
    rows = evaluate_sweep(scn, with_mc=args.mc)

    os.makedirs(args.output, exist_ok=True)
    csv_path = os.path.join(args.output, "curve.csv")
    lines = [CSV_HEADER] + [row.csv_line() for row in rows]
    _write_atomic(csv_path, "\n".join(lines) + "\n")
    print(csv_path)
    if args.svg:
        series = []
        for name, legend in LEGENDS.items():
            values = [getattr(r, name) for r in rows]
            if any(v is not None for v in values):
                series.append((legend, values))
        svg = render_log_plot(
            [r.sweep_value for r in rows], series, x_label=scn.sweep.variable
        )
        svg_path = os.path.join(args.output, "curve.svg")
        _write_atomic(svg_path, svg)
        print(svg_path)
    return EXIT_OK


def _cmd_report(args) -> int:
    report = derived_report(load_scenario(args.scenario))
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


def _threshold_from_rate(text: str) -> float:
    """gamma_th = 2^R - 1 of a spectral efficiency R: a finite R > 0
    whose threshold is finite."""
    try:
        gamma_th = 2.0 ** float(text) - 1.0
    except (ValueError, OverflowError):
        gamma_th = math.nan
    if not 0.0 < gamma_th < math.inf:
        raise argparse.ArgumentTypeError(
            f"R must be finite and > 0 with 2^R - 1 finite, got {text!r}"
        )
    return gamma_th


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for the
    process: building it costs more than a parse, and parse_args keeps
    no state between calls."""
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
        type=_threshold_from_rate,
        dest="gamma_th",
        metavar="R",
        help="set gamma_th = 2^R - 1 from a spectral efficiency",
    )
    p_run.set_defaults(func=_cmd_run)

    p_report = sub.add_parser("report", help="print derived quantities")
    p_report.add_argument("scenario", help="scenario file")
    p_report.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # the one map from errors to exit codes, one stderr line each
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except RisOutageError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
