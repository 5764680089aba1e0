#!/usr/bin/env python3
"""Benchmark of ris_outage, run from the root of a source checkout:

    python3 perfbench/run.py --workload op_curves --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/README.md): op_curves, op_curves_mc.
The run builds its inputs from --seed, takes one untimed warm-up pass over
the workload's operations, then repeats whole passes until --seconds have
gone by, and checks every output against independent references.  With
--trace 0 it reports the end-to-end metrics; with --trace 1 it alternates
untraced and traced passes and reports the per-layer metrics instead.
The last line of standard output is the JSON result; the lines before it
record the machine, the program version and the check summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".perfbench_work"
SETUP_STARTS = 5


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("op_curves", "op_curves_mc"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def speed_probe() -> float:
    """Median ms of a fixed pure-Python loop; tells machine drift apart
    from a change in the program.  Not a metric."""
    times = []
    for _ in range(7):
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def machine_info(root: str) -> dict:
    import numpy
    import scipy

    sha = None  # a plain source tree: the digest below identifies it
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "ris_outage")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def fresh_start(args) -> float:
    """Wall time of one fresh interpreter that imports ris_outage and
    builds the workload's inputs, evaluating nothing."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=120, check=False)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up run failed: {proc.stderr.strip()[-500:]}")
    return elapsed


def pass_cpus(workload: str) -> list[int] | None:
    """CPUs that op_curves passes take in turn, one CPU per pass.

    Its sweep points hold the GIL, so the sweep pool's threads run one at
    a time.  Spread over two CPUs, every hand-off of the GIL waits for the
    other CPU to wake, and on a shared host that wait measured the host's
    scheduler (see README.md, Noise).  On one CPU the same threads hand
    over locally; taking the CPUs in turn averages their speeds.
    op_curves_mc keeps every CPU: its samplers release the GIL."""
    if workload != "op_curves" or not hasattr(os, "sched_setaffinity"):
        return None
    return sorted(os.sched_getaffinity(0))


def run_pass(ops, cpu: int | None = None) -> tuple[float, dict]:
    """One pass over the operations; with cpu set, the pass, and every
    thread the program starts in it, runs on that CPU alone."""
    if cpu is not None:
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {cpu})
    try:
        total, outputs = 0.0, {}
        for op in ops:
            elapsed, out = op.call()
            total += elapsed
            outputs[op.name] = out
        return total, outputs
    finally:
        if cpu is not None:
            os.sched_setaffinity(0, allowed)


def mc_probe(nproc: int) -> dict:
    """Samples/s of direct simulate_op calls at 1 and nproc workers on one
    fixed input (N = 16, Nakagami-Rice, tight-beam misalignment)."""
    import inputs
    from ris_outage import fading, geometry, montecarlo, outage

    d1, d2 = fading.from_nakagami(1.0), fading.from_rice(10.0 ** 0.5)
    mis = geometry.misalignment_stats(geometry.GeometryConfig(**inputs.TIGHT_GEOMETRY))
    hw = outage.HardwareProfile(0.0, 0.0)
    samples = 2 * nproc * (1 << 16)
    rates: dict[int, list[float]] = {1: [], nproc: []}
    results = set()
    for _ in range(3):
        for workers in rates:
            cfg = montecarlo.MCConfig(samples=samples, seed=7, workers=workers)
            t0 = time.perf_counter()
            est = montecarlo.simulate_op(d1, d2, 16, mis, hw, 10.0, 1.0, cfg)
            rates[workers].append(samples / (time.perf_counter() - t0))
            results.add(est.op_hat)
    return {"w1": statistics.median(rates[1]), "wN": statistics.median(rates[nproc]),
            "worker_invariant": len(results) == 1}


LAYER_METRICS = (
    # name, unit, source layer, field
    ("cli.main.self_s", "s", "cli.main", "self_s"),
    ("svgplot.render_log_plot.s", "s", "svgplot.render_log_plot", "s"),
    ("sweep.evaluate_sweep.self_s", "s", "sweep.evaluate_sweep", "self_s"),
    ("cascade.moment_match.calls", "count", "cascade.moment_match", "calls"),
    ("cascade.moment_match.s", "s", "cascade.moment_match", "s"),
    ("geometry.misalignment_stats.calls", "count", "geometry.misalignment_stats", "calls"),
    ("geometry.misalignment_stats.s", "s", "geometry.misalignment_stats", "s"),
    ("outage.op_exact.s", "s", "outage.op_exact", "s"),
    ("outage.op_asymptotic.s", "s", "outage.op_asymptotic", "s"),
    ("outage.op_floor.s", "s", "outage.op_floor", "s"),
    ("cascade.cdf_A.calls", "count", "cascade.cdf_A", "calls"),
    ("cascade.cdf_A.s", "s", "cascade.cdf_A", "s"),
    ("cascade.cdf_Ae2e.calls", "count", "cascade.cdf_Ae2e", "calls"),
    ("cascade.cdf_Ae2e.s", "s", "cascade.cdf_Ae2e", "s"),
    ("cascade.cdf_Ae2e_quadrature.calls", "count", "cascade.cdf_Ae2e_quadrature", "calls"),
    ("cascade.cdf_Ae2e_quadrature.s", "s", "cascade.cdf_Ae2e_quadrature", "s"),
    ("cascade.pdf_A.calls", "count", "cascade.pdf_A", "calls"),
    ("cascade.pdf_Ae2e.s", "s", "cascade.pdf_Ae2e", "s"),
    ("montecarlo.simulate_op.calls", "count", "montecarlo.simulate_op", "calls"),
    ("montecarlo.simulate_op.s", "s", "montecarlo.simulate_op", "s"),
)


DERIVED_METRICS = (
    ("cascade.quadrature_share", "ratio"),
    ("cascade.cdf_A.calls_per_quadrature", "count"),
    ("montecarlo.samples_per_s", "1/s"),
)


def layer_metrics(summary: dict) -> dict:
    """Per-layer values of one traced pass."""
    def get(layer, field):
        return summary.get(layer, {}).get(field, 0)

    out = {name: get(layer, field) for name, _u, layer, field in LAYER_METRICS}
    quad = get("cascade.cdf_Ae2e_quadrature", "calls")
    e2e = get("cascade.cdf_Ae2e", "calls")
    out["cascade.quadrature_share"] = quad / e2e if e2e else 0.0
    out["cascade.cdf_A.calls_per_quadrature"] = summary["_inner_cdf_A"]["calls"] / quad if quad else 0.0
    # over the wall time in which some simulate_op runs, so that how many
    # calls the sweep pool overlaps does not enter the rate
    mc_s = get("montecarlo.simulate_op", "wall_s")
    out["montecarlo.samples_per_s"] = get("montecarlo.simulate_op", "units") / mc_s if mc_s else 0.0
    return out


def run(args, root: str, workdir: str) -> int:
    info = machine_info(root)
    info["probe_ms_start"] = speed_probe()

    import ris_outage
    import tracer as tracing
    from workloads import WORKLOADS

    if not os.path.abspath(ris_outage.__file__).startswith(os.path.join(root, "src")):
        raise RuntimeError(f"ris_outage imported from {ris_outage.__file__}, not this checkout")
    wl = WORKLOADS[args.workload](args.workload, args.seed, root, workdir)
    ops = wl.ops
    cpus = pass_cpus(args.workload)

    def cpu_of(round_no):
        return None if cpus is None else cpus[round_no % len(cpus)]

    _, warm = run_pass(ops, cpu_of(0))
    passes, traced, summaries = [], [], []
    bad_in_pass: list[set] = []
    tr = tracing.Tracer() if args.trace else None
    # fresh starts are spread over the timed phase (and not counted in it),
    # so that set-up sees the same machine as the passes
    starts = None if tr else []
    t_start, paused = time.perf_counter(), 0.0
    rounds = 0
    while True:
        rounds += 1
        while starts is not None and len(starts) < SETUP_STARTS - 1 and (
                time.perf_counter() - t_start - paused >= len(starts) * args.seconds / (SETUP_STARTS - 1)):
            t0 = time.perf_counter()
            starts.append(fresh_start(args))
            paused += time.perf_counter() - t0
        for traced_pass in ((False, True) if tr else (False,)):
            if traced_pass:
                tr.install()
            try:
                elapsed, outs = run_pass(ops, cpu_of(rounds))  # a traced pair shares its CPU
            finally:
                if traced_pass:
                    tr.uninstall()
            (traced if traced_pass else passes).append(elapsed)
            if traced_pass:
                summaries.append(tracing.summarize(tr.take()))
            bad_in_pass.append({name for name, out in outs.items() if out != warm[name]})
        if time.perf_counter() - t_start - paused >= args.seconds:
            break
    while starts is not None and len(starts) < SETUP_STARTS:
        starts.append(fresh_start(args))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = wl.check(warm)
    attempted = len(ops) * len(bad_in_pass)
    failed = sum(len(set(report.problems) | bad) for bad in bad_in_pass)
    correct = True  # every operation that failed a check is counted in failed
    points = sum(op.points for op in ops)

    if tr is None:
        metrics = {
            "setup_s": (statistics.median(starts), "s"),
            "figure_s_p50": (statistics.median(passes), "s"),
            # the median pass in points per second; the mean over the
            # whole phase followed the host's slow spells (README.md)
            "points_per_s": (points / statistics.median(passes), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        per_pass = [layer_metrics(s) for s in summaries]
        units = {name: unit for name, unit, _l, _f in LAYER_METRICS} | dict(DERIVED_METRICS)
        metrics = {name: (statistics.median(p[name] for p in per_pass), unit) for name, unit in units.items()}
        probe = mc_probe(os.cpu_count() or 1)
        correct = probe["worker_invariant"]
        metrics["montecarlo.samples_per_s.w1"] = (probe["w1"], "1/s")
        metrics["montecarlo.samples_per_s.wN"] = (probe["wN"], "1/s")
        overhead = 100.0 * (statistics.median(traced) / statistics.median(passes) - 1.0)
        metrics["trace.overhead_pct"] = (overhead, "%")
        info["quadrature_share_base"] = {"cdf_Ae2e.calls": metrics["cascade.cdf_Ae2e.calls"][0],
                                         "cdf_Ae2e_quadrature.calls": metrics["cascade.cdf_Ae2e_quadrature.calls"][0]}
        info["mc_probe_worker_invariant"] = probe["worker_invariant"]

    info["probe_ms_end"] = speed_probe()
    info.update({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                 "ops_per_pass": len(ops), "points_per_pass": points, "pass_cpus": cpus,
                 "passes": len(passes), "traced_passes": len(traced)})
    if len(passes) >= 40:  # a tail to judge, though not reported as a metric
        info["pass_s_p90"] = statistics.quantiles(passes, n=10)[-1]
    print(json.dumps({"run": info}))
    print(json.dumps({"checks": {
        "worst_reference_rel_diff": report.worst_ref_rel,
        "worst_mc_abs_z": report.worst_mc_z,
        "failed_operations": {name: probs[:3] for name, probs in sorted(report.problems.items())},
        "nondeterministic_operations": sorted(set().union(*bad_in_pass)),
    }}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ris_outage", "__init__.py")):
        print("perfbench: src/ris_outage not found; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    # the program's worker-count override must reach neither this run nor
    # the fresh interpreters it starts
    os.environ.pop("RIS_OUTAGE_THREADS", None)
    sys.path.insert(0, src)
    workdir = os.path.join(root, WORK_DIR, f"{args.workload}-{os.getpid()}")
    try:
        if args.setup_only:
            import ris_outage  # noqa: F401 - part of the set-up being timed
            from workloads import WORKLOADS

            WORKLOADS[args.workload](args.workload, args.seed, root, workdir)
            return 0
        return run(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        work_root = os.path.join(root, WORK_DIR)
        if os.path.isdir(work_root) and not os.listdir(work_root):
            os.rmdir(work_root)


if __name__ == "__main__":
    sys.exit(main())
