"""What the benchmark's tracer needs from the program.

Only traced benchmark runs (perfbench/run.py --trace 1) load
perfbench/tracer.py, which wraps every function named in its LAYERS by
name, and perfbench/run.py's Monte Carlo probe calls simulate_op
positionally.  A renamed or removed traced function, or a changed
simulate_op or MCConfig signature, would break only those runs, so this
test installs the tracer and makes the probe's calls.
"""

import importlib.util
import os

from ris_outage import cli, fading, geometry, montecarlo, outage

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")
SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_layer_and_records_the_probe(tmp_path):
    tracer, inputs = _load("tracer"), _load("inputs")
    original = montecarlo.simulate_op
    d1, d2 = fading.from_nakagami(1.0), fading.from_rice(10.0 ** 0.5)
    mis = geometry.misalignment_stats(geometry.GeometryConfig(**inputs.TIGHT_GEOMETRY))
    hw = outage.HardwareProfile(0.0, 0.0)
    cfg = montecarlo.MCConfig(samples=20_000, seed=7, workers=1)
    t = tracer.Tracer()
    t.install()  # resolves every name in LAYERS
    try:
        est = montecarlo.simulate_op(d1, d2, 16, mis, hw, 10.0, 1.0, cfg)
        rc = cli.main(["run", os.path.join(SCENARIO_DIR, "distance_sweep.scenario"),
                       "-o", str(tmp_path / "out"), "--svg"])
    finally:
        t.uninstall()
    assert montecarlo.simulate_op is original
    assert rc == 0 and 0.0 <= est.op_hat <= 1.0
    layers = tracer.summarize(t.take())
    assert layers["montecarlo.simulate_op"]["calls"] == 1
    assert layers["montecarlo.simulate_op"]["units"] == 20_000
    for name in ("cli.main", "sweep.evaluate_sweep", "cascade.moment_match",
                 "geometry.misalignment_stats", "outage.op_exact",
                 "outage.op_asymptotic", "outage.op_floor", "cascade.cdf_Ae2e",
                 "svgplot.render_log_plot"):
        assert layers[name]["calls"] >= 1, name
