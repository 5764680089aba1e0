import math
import os
import time
import tracemalloc

import numpy as np
import pytest

from conftest import MIXED_SIGMA_P_SWEEP, make_stats, sample_envelope_one_block
from ris_outage import (
    ConfigError,
    HardwareProfile,
    MCConfig,
    MGDistribution,
    OutageScenario,
    cdf_A,
    from_nakagami,
    from_rice,
    misalignment_stats,
    moment_match,
    op_exact,
    parse_scenario,
    simulate_cdf,
    simulate_curve,
    simulate_op,
)
from ris_outage import montecarlo
from ris_outage.sweep import evaluate_sweep

RICE_5DB = 10.0 ** 0.5
SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")
ONE_MINUS_2K1_2 = 0.72026823636695514543080238592917795222553083031697


def calibrate_gamma(p, target, mis=None, hw=HardwareProfile(), gamma_th=1.0):
    """Bisect the mean SNR so the closed-form OP hits the target."""
    lo, hi = 1e-8, 1e10
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        sc = OutageScenario(kg=p, hw=hw, gamma=mid, gamma_th=gamma_th, mis=mis)
        if op_exact(sc) > target:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def _chunk_array_bytes(n_elements):
    return next(montecarlo._chunk_sizes(8192, n_elements)) * n_elements * 8


def _curve_peak(d1, d2, n_elements, samples):
    """tracemalloc's peak over one aligned one-point curve on one worker."""
    points = [(None, HardwareProfile(), 10.0, 1.0)]
    cfg = MCConfig(samples=samples, seed=1, workers=1)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        simulate_curve(d1, d2, n_elements, points, cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestDeterminism:
    def test_same_seed_same_result(self):
        d1, d2 = from_nakagami(1.0), from_rice(1.0, 20)
        args = (d1, d2, 4, None, HardwareProfile(), 2.0, 1.0)
        a = simulate_op(*args, MCConfig(samples=300_000, seed=5))
        b = simulate_op(*args, MCConfig(samples=300_000, seed=5))
        assert a.op_hat == b.op_hat

    def test_worker_invariance(self):
        d1, d2 = from_nakagami(1.0), from_rice(1.0, 20)
        s = make_stats(0.6, 2.5)
        args = (d1, d2, 4, s, HardwareProfile(0.1, 0.1), 2.0, 1.0)
        results = {
            w: simulate_op(*args, MCConfig(samples=300_000, seed=5, workers=w)).op_hat
            for w in (1, 2, 8)
        }
        assert len(set(results.values())) == 1

    def test_env_override_never_changes_results(self, monkeypatch):
        d1, d2 = from_nakagami(1.0), from_rice(1.0, 20)
        args = (d1, d2, 2, None, HardwareProfile(), 2.0, 1.0)
        base = simulate_op(*args, MCConfig(samples=200_000, seed=1)).op_hat
        monkeypatch.setenv("RIS_OUTAGE_THREADS", "3")
        assert simulate_op(*args, MCConfig(samples=200_000, seed=1)).op_hat == base

    def test_env_never_overrides_explicit_workers(self, monkeypatch):
        monkeypatch.setenv("RIS_OUTAGE_THREADS", "4")
        assert MCConfig(samples=1, workers=1).resolved_workers() == 1
        assert MCConfig(samples=1).resolved_workers() == 4

    @pytest.mark.parametrize("workers", [0, -2, 1.5, "4", None])
    def test_bad_workers_is_config_error(self, workers):
        with pytest.raises(ConfigError, match="workers"):
            MCConfig(samples=1, workers=workers)

    @pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
    def test_bad_env_is_config_error(self, monkeypatch, value):
        monkeypatch.setenv("RIS_OUTAGE_THREADS", value)
        with pytest.raises(ConfigError, match="RIS_OUTAGE_THREADS"):
            MCConfig(samples=1).resolved_workers()

    def test_seed_changes_stream(self):
        d1, d2 = from_nakagami(1.0), from_rice(1.0, 20)
        args = (d1, d2, 2, None, HardwareProfile(), 2.0, 1.0)
        a = simulate_op(*args, MCConfig(samples=200_000, seed=1))
        b = simulate_op(*args, MCConfig(samples=200_000, seed=2))
        assert a.op_hat != b.op_hat


class TestSimulateOp:
    def test_impossible_event(self):
        d1, d2 = from_nakagami(1.0), from_rice(1.0, 20)
        est = simulate_op(
            d1, d2, 4, None, HardwareProfile(), 1e15, 1.0,
            MCConfig(samples=100_000, seed=3),
        )
        assert est.op_hat == 0.0
        assert est.tail_flag

    def test_cross_validation_exact_surrogate(self):
        # N=1 single-term fading: the surrogate is exact, so 4 sigma holds
        d1, d2 = from_nakagami(1.0), from_nakagami(2.0)
        p = moment_match(d1, d2, 1)
        gamma = calibrate_gamma(p, 1e-2)
        est = simulate_op(
            d1, d2, 1, None, HardwareProfile(), gamma, 1.0,
            MCConfig(samples=1_000_000, seed=21),
        )
        sc = OutageScenario(kg=p, hw=HardwareProfile(), gamma=gamma, gamma_th=1.0)
        assert abs(est.op_hat - op_exact(sc)) <= 4.0 * est.stderr

    def test_surrogate_quality_quantified(self):
        # the moment-matched surrogate is an approximation for mixtures:
        # quantify its relative error at N=4 and N=16 with a strong
        # line-of-sight hop (it shrinks with the element count)
        d1, d2 = from_nakagami(1.0), from_rice(RICE_5DB, 20)
        rel_err = {}
        for n in (4, 16):
            p = moment_match(d1, d2, n)
            gamma = calibrate_gamma(p, 1e-2)
            est = simulate_op(
                d1, d2, n, None, HardwareProfile(), gamma, 1.0,
                MCConfig(samples=1_000_000, seed=31),
            )
            sc = OutageScenario(kg=p, hw=HardwareProfile(), gamma=gamma, gamma_th=1.0)
            rel_err[n] = abs(est.op_hat - op_exact(sc)) / op_exact(sc)
        # bounds include ~1% of MC noise on top of the surrogate bias
        assert rel_err[4] < 0.12
        assert rel_err[16] < 0.035
        assert rel_err[16] < rel_err[4]

    def test_sdnr_formula_with_hardware(self):
        # outage events under the SDNR form coincide with the effective
        # threshold reduction; MC must agree with the reduced closed form
        d1, d2 = from_nakagami(1.0), from_nakagami(2.0)
        p = moment_match(d1, d2, 1)
        hw = HardwareProfile(0.25, 0.2)
        gamma = calibrate_gamma(p, 5e-2, hw=hw, gamma_th=1.5)
        est = simulate_op(
            d1, d2, 1, None, hw, gamma, 1.5, MCConfig(samples=1_000_000, seed=8)
        )
        sc = OutageScenario(kg=p, hw=hw, gamma=gamma, gamma_th=1.5)
        assert abs(est.op_hat - op_exact(sc)) <= 4.0 * est.stderr

    def test_ceiling_gives_certain_outage(self):
        d1, d2 = from_nakagami(1.0), from_rice(1.0, 20)
        est = simulate_op(
            d1, d2, 2, None, HardwareProfile(0.3, 0.3), 1e6, 6.0,
            MCConfig(samples=50_000, seed=2),
        )
        assert est.op_hat == 1.0

    def test_coverage_calibration(self):
        # across 200 seeds, the 95% interval contains the true value in
        # >= 90% of runs (binomial slack); exact-surrogate config
        d1, d2 = from_nakagami(1.0), from_nakagami(2.0)
        p = moment_match(d1, d2, 1)
        gamma = calibrate_gamma(p, 0.05)
        sc = OutageScenario(kg=p, hw=HardwareProfile(), gamma=gamma, gamma_th=1.0)
        truth = op_exact(sc)
        hits = 0
        for seed in range(200):
            est = simulate_op(
                d1, d2, 1, None, HardwareProfile(), gamma, 1.0,
                MCConfig(samples=20_000, seed=seed),
            )
            if abs(est.op_hat - truth) <= 1.96 * est.stderr:
                hits += 1
        assert hits >= 180

    def test_config_validation(self):
        d1, d2 = from_nakagami(1.0), from_nakagami(2.0)
        with pytest.raises(ConfigError):
            MCConfig(samples=0)
        with pytest.raises(ConfigError):
            simulate_op(d1, d2, 0, None, HardwareProfile(), 1.0, 1.0,
                        MCConfig(samples=100))

    @pytest.mark.parametrize(
        "gamma,gamma_th",
        [(0.0, 1.0), (-1.0, 1.0), (math.inf, 1.0), (math.nan, 1.0),
         (1.0, -1.0), (1.0, math.nan)],
    )
    def test_point_validation(self, gamma, gamma_th):
        d = from_nakagami(1.0)
        with pytest.raises(ConfigError):
            simulate_op(d, d, 1, None, HardwareProfile(), gamma, gamma_th,
                        MCConfig(samples=100))

    def test_threshold_bounds_allowed(self):
        # simulate_cdf maps its grid points x = 0 and x = inf here
        d = from_nakagami(1.0)
        ests = simulate_curve(d, d, 1, [(None, HardwareProfile(), 1.0, 0.0),
                                        (None, HardwareProfile(), 1.0, math.inf)],
                              MCConfig(samples=1000))
        assert [e.op_hat for e in ests] == [0.0, 1.0]

    def test_throughput_roughly_linear(self):
        # performance guard, deliberately loose
        d1, d2 = from_nakagami(1.0), from_rice(1.0, 20)
        args = (d1, d2, 4, None, HardwareProfile(), 2.0, 1.0)
        t0 = time.perf_counter()
        simulate_op(*args, MCConfig(samples=100_000, seed=1, workers=1))
        t_small = time.perf_counter() - t0
        t0 = time.perf_counter()
        simulate_op(*args, MCConfig(samples=800_000, seed=1, workers=1))
        t_big = time.perf_counter() - t0
        assert t_big < 8.0 * max(t_small, 0.01) * 4.0


class TestSimulateCurve:
    def test_sweep_cells_equal_simulate_op(self):
        scn = parse_scenario(MIXED_SIGMA_P_SWEEP)
        rows = evaluate_sweep(scn, with_mc=True)
        assert "aligned" in rows[0].flags
        assert all("aligned" not in r.flags for r in rows[1:])
        for row in rows:
            hw, geometry, gamma, gamma_th = scn.point_inputs(row.sweep_value)
            mis = None if "aligned" in row.flags else misalignment_stats(geometry)
            est = simulate_op(
                scn.hop1, scn.hop2, scn.n_elements, mis, hw, gamma, gamma_th, scn.mc
            )
            assert (row.op_mc, row.mc_stderr) == (est.op_hat, est.stderr)

    def test_mc_tail_follows_the_closed_form_flags(self):
        # 60 samples at 0 dB: every point counts fewer than 10 outages, so
        # each row ends in mc_tail after its closed-form flags
        scn = parse_scenario(
            MIXED_SIGMA_P_SWEEP.replace("gamma_db = 8.0", "gamma_db = 0.0")
            .replace("stop = 0.15", "stop = 0.04").replace("samples = 30000", "samples = 60"))
        rows = evaluate_sweep(scn, with_mc=True)
        assert [r.flags for r in rows] == [
            ("aligned", "mc_tail"),
            ("floor_undefined", "mc_tail"),
            ("asymptote_undefined", "floor_undefined", "mc_tail"),
            ("mc_tail",),
        ]
        for row, closed in zip(rows, evaluate_sweep(scn)):
            assert (row.sweep_value, row.op_exact, row.op_asymptotic, row.op_floor) == (
                closed.sweep_value, closed.op_exact, closed.op_asymptotic, closed.op_floor)
            assert row.flags == closed.flags + ("mc_tail",)
            hw, geometry, gamma, gamma_th = scn.point_inputs(row.sweep_value)
            mis = None if "aligned" in row.flags else misalignment_stats(geometry)
            est = simulate_op(
                scn.hop1, scn.hop2, scn.n_elements, mis, hw, gamma, gamma_th, scn.mc
            )
            assert est.tail_flag
            assert (row.op_mc, row.mc_stderr) == (est.op_hat, est.stderr)

    def test_shared_draws_monotone_along_snr(self):
        with open(os.path.join(SCENARIO_DIR, "aligned_elements.scenario")) as fh:
            scn = parse_scenario(fh.read())
        ops = [r.op_mc for r in evaluate_sweep(scn, with_mc=True)]
        assert ops[0] > 0.0
        assert all(b <= a for a, b in zip(ops, ops[1:]))

    @pytest.mark.parametrize("n_elements,samples", [
        (4, 65536 + 123), (16, 20 * 2048 + 123), (4096, 100 * 8 + 3)])
    def test_worker_invariance_across_chunk_sizes(self, n_elements, samples):
        # 9, 21 and 101 chunks of 8192, 2048 and 8 snapshots: workers 1, 2
        # and 8 split them differently and must count the same; gamma
        # scales as 1/N^2 with E[A]^2, so every point counts some outages
        d1, d2 = from_nakagami(1.0), from_rice(RICE_5DB, 20)
        s = make_stats(0.55, 3.5)
        points = [(s, HardwareProfile(), g * (4.0 / n_elements) ** 2, 1.0)
                  for g in (0.3, 1.0, 3.0)]
        results = {
            w: [(e.op_hat, e.stderr, e.n) for e in simulate_curve(
                d1, d2, n_elements, points, MCConfig(samples=samples, seed=3, workers=w))]
            for w in (1, 2, 8)
        }
        assert len(list(montecarlo._chunk_sizes(samples, n_elements))) > 8
        assert results[1] == results[2] == results[8]
        assert all(0.0 < op < 1.0 for op, _, _ in results[1])

    @pytest.mark.parametrize("n_elements,rows", [
        (1, 8192), (4, 8192), (5, 6553), (16, 2048), (4096, 8), (40000, 1)])
    def test_chunk_rows(self, n_elements, rows):
        # a chunk holds at most 8192 snapshots and 2^15 envelope pairs,
        # and at least one snapshot; the last chunk takes the remainder
        assert list(montecarlo._chunk_sizes(3 * rows + 1, n_elements)) == [rows] * 3 + [1]
        assert list(montecarlo._chunk_sizes(rows, n_elements)) == [rows]

    def test_impaired_threshold_sweep_equals_simulate_op(self):
        # points with the same (mis, kappa^2, gamma) share one SNR array:
        # (0.1, 0.2) and (0.2, 0.1) have the same kappa^2
        d1, d2 = from_nakagami(1.0), from_rice(RICE_5DB)
        s = make_stats(0.55, 3.5)
        points = [(mis, hw, 1.0, th)
                  for mis in (None, s)
                  for hw in (HardwareProfile(0.1, 0.2), HardwareProfile(0.2, 0.1),
                             HardwareProfile())
                  for th in (0.5, 1.0, 2.0)]
        cfg = MCConfig(samples=20_000, seed=12, workers=2)
        curve = simulate_curve(d1, d2, 4, points, cfg)
        for point, est in zip(points, curve):
            assert est == simulate_op(d1, d2, 4, *point, cfg)
        assert all(0.0 < est.op_hat < 1.0 for est in curve)

    @pytest.mark.parametrize("n_elements", [3, 9])
    def test_counts_equal_the_one_block_construction(self, n_elements):
        # every chunk drawn as first built: one normal block per Rice hop,
        # numpy's row sums and the full SNR form at every point
        d1, d2 = from_nakagami(1.0), from_rice(RICE_5DB)
        s = make_stats(0.55, 3.5)
        points = [(mis, hw, gamma, 1.0) for mis in (None, s)
                  for hw in (HardwareProfile(), HardwareProfile(0.1, 0.2))
                  for gamma in (3.0, 30.0)]
        cfg = MCConfig(samples=8192 + 500, seed=4, workers=1)
        hits = np.zeros(len(points), dtype=np.int64)
        for index, n in enumerate(montecarlo._chunk_sizes(cfg.samples, n_elements)):
            rng = montecarlo._chunk_rng(cfg.seed, index)
            hg = (sample_envelope_one_block(d1, rng, (n, n_elements))
                  * sample_envelope_one_block(d2, rng, (n, n_elements)))
            a = hg.sum(axis=1)
            u = 1.0 - rng.random(size=n)
            for j, (mis, hw, gamma, gamma_th) in enumerate(points):
                gain = a if mis is None else a * (mis.b_o * u ** (1.0 / mis.zeta))
                g2 = gain * gain
                gamma_u = g2 / (hw.kappa_sq_sum * g2 + 1.0 / gamma)
                hits[j] += np.count_nonzero(gamma_u <= gamma_th)
        curve = simulate_curve(d1, d2, n_elements, points, cfg)
        assert [e.op_hat for e in curve] == [h / cfg.samples for h in hits.tolist()]

    @pytest.mark.parametrize("n_cols", range(1, 10))
    def test_row_sums_are_numpy_sums(self, n_cols):
        rng = np.random.default_rng(n_cols)
        x = rng.random((1000, n_cols)) * 10.0 ** rng.integers(-3, 6, size=(1000, n_cols))
        out = montecarlo._row_sums(x)
        assert np.array_equal(out.view(np.uint64), x.sum(axis=1).view(np.uint64))

    @pytest.mark.parametrize("hops,bound", [
        pytest.param("nakagami-rice", 2.5, id="nakagami-rice"),
        pytest.param("rice-nakagami", 2.5, id="rice-nakagami"),
        pytest.param("hand-built-nakagami", 2.5, id="hand-built-nakagami"),
        pytest.param("nakagami-hand-built", 3.25, id="nakagami-hand-built"),
    ])
    def test_chunk_holds_two_arrays(self, hops, bound):
        # a chunk at N = 512 (64 snapshots) holds the product array and one
        # hop's draw, each 2^15 floats (256 KB), and little besides: a Rice
        # draw adds one 64 KB normal slice, a quarter array; a hand-built
        # mixture hop adds its shape array while it draws, which shows only
        # when the first hop's draw is held beside it
        rice = from_rice(RICE_5DB)
        other = MGDistribution(terms=rice.terms, rate=rice.rate) if "hand" in hops else rice
        d1, d2 = from_nakagami(1.0), other
        if not hops.startswith("nakagami"):
            d1, d2 = d2, d1
        assert _curve_peak(d1, d2, 512, 8192) < bound * _chunk_array_bytes(512)

    @pytest.mark.parametrize("samples", [8, 256 * 8 + 3])
    def test_chunk_memory_flat_in_samples(self, samples):
        # at N = 4096 a chunk is 8 snapshots, so one chunk and 257 peak
        # alike: two 2^15-float arrays and the Rice draw's normal slice
        d1, d2 = from_nakagami(1.0), from_rice(RICE_5DB)
        peak = _curve_peak(d1, d2, 4096, samples)
        assert 2.0 * _chunk_array_bytes(4096) < peak < 2.5 * _chunk_array_bytes(4096)

    def test_empty_points(self):
        d = from_nakagami(1.0)
        with pytest.raises(ConfigError):
            simulate_curve(d, d, 1, [], MCConfig(samples=100))



class TestSimulateCdf:
    def test_zero_grid_point(self):
        d = from_nakagami(1.0)
        out = simulate_cdf(d, d, 1, None, [0.0, 1.0], MCConfig(samples=100_000, seed=4))
        assert out[0][1] == 0.0

    def test_double_rayleigh_anchor(self):
        d = from_nakagami(1.0)
        out = simulate_cdf(d, d, 1, None, [1.0], MCConfig(samples=1_000_000, seed=6))
        x, p_hat, stderr = out[0]
        assert abs(p_hat - ONE_MINUS_2K1_2) <= 4.0 * stderr

    def test_monotone_and_matches_closed_form(self):
        d1, d2 = from_nakagami(2.0), from_nakagami(1.0)
        p = moment_match(d1, d2, 1)
        grid = [0.2, 0.5, 1.0, 1.5, 2.5]
        out = simulate_cdf(d1, d2, 1, None, grid, MCConfig(samples=1_000_000, seed=13))
        cdf_hats = [row[1] for row in out]
        assert all(b >= a for a, b in zip(cdf_hats, cdf_hats[1:]))
        for x, p_hat, stderr in out:
            assert abs(p_hat - cdf_A(p, x)) <= 4.0 * stderr + 1e-9

    def test_misaligned_gain(self):
        from ris_outage import cdf_Ae2e

        d1, d2 = from_nakagami(2.0), from_nakagami(1.0)
        p = moment_match(d1, d2, 1)
        s = make_stats(0.7, 1.8)
        grid = [0.1, 0.3, 0.7]
        out = simulate_cdf(d1, d2, 1, s, grid, MCConfig(samples=1_000_000, seed=14))
        for x, p_hat, stderr in out:
            assert abs(p_hat - cdf_Ae2e(p, s, x)) <= 4.0 * stderr + 1e-9

    def test_grid_validation(self):
        d = from_nakagami(1.0)
        with pytest.raises(ConfigError):
            simulate_cdf(d, d, 1, None, [1.0, 0.5], MCConfig(samples=1000, seed=0))
        with pytest.raises(ConfigError):
            simulate_cdf(d, d, 1, None, [], MCConfig(samples=1000, seed=0))
        for grid in ([math.nan], [1.0, math.nan]):
            with pytest.raises(ConfigError):
                simulate_cdf(d, d, 1, None, grid, MCConfig(samples=1000, seed=0))

    def test_worker_invariance(self):
        d1, d2 = from_nakagami(1.0), from_rice(RICE_5DB, 20)
        s = make_stats(0.55, 3.5)
        grid = np.linspace(0.0, 8.0, 37)
        results = {
            w: simulate_cdf(d1, d2, 4, s, grid,
                            MCConfig(samples=50_000, seed=8, workers=w))
            for w in (1, 2, 8)
        }
        assert results[1] == results[2] == results[8]
        assert 0.0 < results[1][18][1] < 1.0
