"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines.

Criteria 3, 4 and 5 assert externally tabulated outage values attached
to the bundled misalignment geometries.  They are implemented literally
and marked strict-xfail: the tabulated values are mutually inconsistent
with their own stated parameters (docs/reference_values.md carries the
full analysis), so a faithful implementation cannot reproduce them.  The
honest counterparts that the model does satisfy are asserted in
test_outage.py (floor-as-prefactor, monotone ceiling behavior) and in
criteria 1/2/6/7/8 here.
"""

import math
import time

import numpy as np
import pytest

from conftest import make_stats
from ris_outage import (
    FloorUndefined,
    GeometryConfig,
    HardwareProfile,
    MCConfig,
    OutageScenario,
    cdf_A,
    cdf_Ae2e_quadrature,
    from_nakagami,
    from_rice,
    misalignment_stats,
    moment_match,
    op_exact,
    op_floor,
    simulate_op,
)
from ris_outage.cascade import _cdf, _cdf_A_quadrature, _series_defined
from ris_outage.cli import _selftest

RICE_5DB = 10.0 ** 0.5
ONE_MINUS_2K1_2 = 0.72026823636695514543080238592917795222553083031697

# 5 m / 10 m reference deployments for the misalignment scenarios
GEOMETRY_5M = dict(
    l2=5.0, w_o=1e-3, f=100e9, cn2=2.3e-9, alpha=0.1,
    theta=7 * math.pi / 4, phi=2 * math.pi / 3,
    sigma_p=0.05, sigma_o=0.0, d_x=0.0,
)
GEOMETRY_10M = dict(GEOMETRY_5M, l2=10.0, sigma_o=0.1, d_x=0.1)


def report(number: int, passed: bool, text: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {text}")


def calibrate_gamma(p, target, mis=None, hw=HardwareProfile(), gamma_th=1.0):
    lo, hi = 1e-8, 1e12
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        sc = OutageScenario(kg=p, hw=hw, gamma=mid, gamma_th=gamma_th, mis=mis)
        if op_exact(sc) > target:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def test_criterion_1_dual_path_equivalence():
    """Series CDFs agree with their quadrature oracles to 1e-6 absolute on
    100 randomized parameter sets in under 60 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(20240817)
    sets_done = 0
    engaged_a = engaged_e = 0
    worst_a = worst_e = 0.0
    while sets_done < 100:
        m = rng.uniform(0.5, 5.0)
        k_r = 10.0 ** (rng.uniform(0.0, 10.0) / 10.0)
        n = int(rng.choice([1, 2, 4, 16]))
        p = moment_match(from_nakagami(m), from_rice(k_r, 20), n)
        if not _series_defined(p):
            continue  # the series form is undefined there by contract
        s = make_stats(rng.uniform(0.1, 0.95), rng.uniform(0.5, 8.0))
        if not _series_defined(p, s.zeta):
            continue
        sets_done += 1
        x_lim = 20.0 * s.b_o / p.xi  # keep the series argument in range
        for frac in (0.02, 0.08, 0.25, 0.6):
            x = frac * x_lim
            f = _cdf(p, None, x)
            if f.series:
                engaged_a += 1
                worst_a = max(worst_a, abs(f.value - _cdf_A_quadrature(p, x)))
            f = _cdf(p, s, x)
            if f.series:
                engaged_e += 1
                worst_e = max(worst_e, abs(f.value - cdf_Ae2e_quadrature(p, s, x)))
    elapsed = time.perf_counter() - start
    ok = worst_a < 1e-6 and worst_e < 1e-6 and elapsed < 60.0
    report(
        1,
        ok,
        f"dual-path: cdf_A worst {worst_a:.2e} ({engaged_a} pts), "
        f"cdf_Ae2e worst {worst_e:.2e} ({engaged_e} pts), {elapsed:.1f}s",
    )
    assert engaged_a >= 280 and engaged_e >= 280
    assert worst_a < 1e-6
    assert worst_e < 1e-6
    assert elapsed < 60.0


def test_criterion_2_mc_cross_validation():
    """20 scenarios spanning ideal/impaired x aligned/misaligned with
    closed-form OP in [1e-3, 0.5]: MC at 1e6 samples within 4 sigma of
    the closed form in at least 19, in under 5 minutes."""
    start = time.perf_counter()
    configs = [
        (from_nakagami(1.0), from_nakagami(2.0), 1),   # exact surrogate
        (from_nakagami(2.0), from_nakagami(0.7), 1),   # exact surrogate
        (from_nakagami(1.0), from_rice(RICE_5DB, 20), 16),
        (from_nakagami(2.5), from_rice(RICE_5DB, 20), 4),
        (from_nakagami(3.0), from_rice(1.0, 20), 16),
    ]
    cases = [
        (HardwareProfile(), None),
        (HardwareProfile(), make_stats(0.6, 2.7)),
        (HardwareProfile(0.3, 0.3), None),
        (HardwareProfile(0.2, 0.15), make_stats(0.45, 4.2)),
    ]
    targets = (2e-3, 8e-3, 4e-2, 0.15, 0.4)
    hits = 0
    rows = []
    for case_idx, (hw, mis) in enumerate(cases):
        for cfg_idx, (d1, d2, n) in enumerate(configs):
            target = targets[(case_idx + cfg_idx) % len(targets)]
            gamma_th = 1.0 if hw.kappa_sq_sum == 0.0 else 1.5
            p = moment_match(d1, d2, n)
            gamma = calibrate_gamma(p, target, mis=mis, hw=hw, gamma_th=gamma_th)
            sc = OutageScenario(kg=p, hw=hw, gamma=gamma, gamma_th=gamma_th, mis=mis)
            op_cf = op_exact(sc)
            assert 1e-3 <= op_cf <= 0.5
            est = simulate_op(
                d1, d2, n, mis, hw, gamma, gamma_th,
                MCConfig(samples=1_000_000, seed=1000 + 7 * case_idx + cfg_idx),
            )
            z = abs(est.op_hat - op_cf) / est.stderr
            rows.append(z)
            if z <= 4.0:
                hits += 1
    elapsed = time.perf_counter() - start
    ok = hits >= 19 and elapsed < 300.0
    report(
        2,
        ok,
        f"MC cross-validation: {hits}/20 within 4 sigma "
        f"(worst z = {max(rows):.2f}), {elapsed:.0f}s",
    )
    assert hits >= 19
    assert elapsed < 300.0


@pytest.mark.xfail(
    strict=True,
    reason="tabulated reference values are inconsistent with the stated "
    "geometry (divergent 1 mm beam at 100 GHz gives B_o ~ 5e-4, "
    "zeta ~ 4e3, hence OP = 1 at these abscissae); see "
    "docs/reference_values.md",
)
def test_criterion_3_reference_values_5m():
    """5 m misalignment deployment at ratio 5 dB: OP 4.07e-6 (m=1) and
    2.71e-6 (m=5), each within 25%."""
    mis = misalignment_stats(GeometryConfig(**GEOMETRY_5M))
    gamma = 10.0 ** 0.5
    results = {}
    for m, target in ((1.0, 4.07e-6), (5.0, 2.71e-6)):
        p = moment_match(from_nakagami(m), from_rice(RICE_5DB, 20), 16)
        sc = OutageScenario(kg=p, hw=HardwareProfile(), gamma=gamma,
                            gamma_th=1.0, mis=mis)
        results[m] = (op_exact(sc), target)
    ok = all(abs(got - want) <= 0.25 * want for got, want in results.values())
    report(3, ok, f"5 m reference values: {results}")
    for got, want in results.values():
        assert abs(got - want) <= 0.25 * want


@pytest.mark.xfail(
    strict=True,
    reason="tabulated reference values are inconsistent with the stated "
    "geometry (implied B_o = 0.545, zeta = 3.42 require a ~0.11 m "
    "beamwidth; the stated waist/carrier give 9.55 m); see "
    "docs/reference_values.md",
)
def test_criterion_4_reference_values_10m():
    """10 m deployment with orientation jitter: OP 9.8e-3 at -5 dB and
    1.9e-4 at +5 dB within 25%, with 1e7-sample MC confirming -5 dB."""
    mis = misalignment_stats(GeometryConfig(**GEOMETRY_10M))
    d1, d2 = from_nakagami(1.0), from_rice(RICE_5DB, 20)
    p = moment_match(d1, d2, 16)
    got = {}
    for ratio_db, target in ((-5.0, 9.8e-3), (5.0, 1.9e-4)):
        gamma = 10.0 ** (ratio_db / 10.0)
        sc = OutageScenario(kg=p, hw=HardwareProfile(), gamma=gamma,
                            gamma_th=1.0, mis=mis)
        got[ratio_db] = (op_exact(sc), target)
    ok = all(abs(g - w) <= 0.25 * w for g, w in got.values())
    report(4, ok, f"10 m reference values: {got}")
    for g, w in got.values():
        assert abs(g - w) <= 0.25 * w
    est = simulate_op(
        d1, d2, 16, mis, HardwareProfile(), 10.0 ** -0.5, 1.0,
        MCConfig(samples=10_000_000, seed=404),
    )
    assert abs(est.op_hat - 9.8e-3) <= 4.0 * est.stderr


@pytest.mark.xfail(
    strict=True,
    raises=(FloorUndefined, AssertionError),
    reason="at the 5 m deployment zeta ~ 4e3 >= 2 min(k_a, m_a): the "
    "closed-form floor is undefined; and for any zeta > 0 the exact OP "
    "keeps decaying (the end-to-end gain is positive a.s.), so a "
    "floor-equality at finite SNR cannot hold.  The prefactor property "
    "op_exact*(gamma/gamma_th)^(zeta/2) -> op_floor is verified in "
    "test_outage.py; see docs/reference_values.md",
)
def test_criterion_5_floor_property():
    """Floor equality at ratio 100 dB for the 5 m deployment, and floor
    bit-identical across hardware profiles at gamma_th = 1."""
    mis = misalignment_stats(GeometryConfig(**GEOMETRY_5M))
    p = moment_match(from_nakagami(1.0), from_rice(RICE_5DB, 20), 16)
    floor_ideal = op_floor(
        OutageScenario(kg=p, hw=HardwareProfile(), gamma=1e10, gamma_th=1.0, mis=mis)
    )
    floor_hw = op_floor(
        OutageScenario(kg=p, hw=HardwareProfile(0.3, 0.3), gamma=1e10,
                       gamma_th=1.0, mis=mis)
    )
    exact = op_exact(
        OutageScenario(kg=p, hw=HardwareProfile(), gamma=1e10, gamma_th=1.0, mis=mis)
    )
    ok = floor_ideal == floor_hw and abs(exact - floor_ideal) <= 5e-3 * floor_ideal
    report(5, ok, f"floor: exact@100dB {exact:.3e} vs floor {floor_ideal:.3e}")
    assert floor_ideal == floor_hw
    assert abs(exact - floor_ideal) <= 5e-3 * floor_ideal


def test_criterion_6_threshold_ceiling():
    """kappa_s = kappa_d = 0.3: OP = 1 exactly at gamma_th = 6 for every
    mean SNR, and OP -> 1 monotonically as gamma_th approaches the
    ceiling 1/0.18 = 5.5556 from below."""
    p = moment_match(from_nakagami(1.0), from_rice(RICE_5DB, 20), 4)
    hw = HardwareProfile(0.3, 0.3)
    exact_one = all(
        op_exact(OutageScenario(kg=p, hw=hw, gamma=g, gamma_th=6.0)) == 1.0
        for g in (1e-2, 1.0, 1e4, 1e12)
    )
    ceiling = 1.0 / 0.18
    ths = ceiling * (1.0 - np.logspace(-8, -1, 15)[::-1])
    ops = [
        op_exact(OutageScenario(kg=p, hw=hw, gamma=50.0, gamma_th=float(t)))
        for t in ths
    ]
    monotone = all(b >= a - 1e-12 for a, b in zip(ops, ops[1:]))
    approaches_one = ops[-1] > 1.0 - 1e-6
    ok = exact_one and monotone and approaches_one
    report(6, ok, f"ceiling: OP(gamma_th=6)=1 exact {exact_one}, "
                  f"monotone rise to {ops[-1]:.8f}")
    assert exact_one and monotone and approaches_one


def test_criterion_7_double_rayleigh_anchor():
    """Single-element Rayleigh x Rayleigh: k_a = m_a = 1, xi = 1, CDF(1)
    equals 1 - 2 K_1(2) to 1e-9 via the quadrature path, and 1e6-sample
    MC agrees within 4 sigma."""
    d = from_nakagami(1.0)
    p = moment_match(d, d, 1)
    shapes_ok = (
        abs(p.k_a - 1.0) < 1e-9 and abs(p.m_a - 1.0) < 1e-9 and abs(p.xi - 1.0) < 1e-9
    )
    value = cdf_A(p, 1.0)
    anchor_ok = abs(value - ONE_MINUS_2K1_2) <= 1e-9 * ONE_MINUS_2K1_2
    gamma = 1.0  # gain threshold exactly 1
    est = simulate_op(
        d, d, 1, None, HardwareProfile(), gamma, 1.0,
        MCConfig(samples=1_000_000, seed=77),
    )
    mc_ok = abs(est.op_hat - value) <= 4.0 * est.stderr
    ok = shapes_ok and anchor_ok and mc_ok
    report(7, ok, f"double-Rayleigh: CDF(1) = {value:.12f}, mc z = "
                  f"{abs(est.op_hat - value) / est.stderr:.2f}")
    assert shapes_ok and anchor_ok and mc_ok


def test_criterion_8_invariant_suites_and_selftest():
    """Built-in selftest exits 0; spot invariants (monotonicity,
    normalization, determinism, worker invariance) hold."""
    import io

    buf = io.StringIO()
    selftest_rc = _selftest(out=buf)

    # determinism / worker invariance
    d1, d2 = from_nakagami(1.0), from_rice(RICE_5DB, 20)
    args = (d1, d2, 4, make_stats(0.6, 2.5), HardwareProfile(0.1, 0.1), 2.0, 1.0)
    ops = {
        w: simulate_op(*args, MCConfig(samples=200_000, seed=3, workers=w)).op_hat
        for w in (1, 4)
    }
    deterministic = len(set(ops.values())) == 1

    # monotone CDF and unit normalization of the outage curve endpoints
    p = moment_match(d1, d2, 4)
    xs = np.linspace(0.0, 5.0 * math.sqrt(p.omega_a), 200)
    vals = [cdf_A(p, float(x)) for x in xs]
    monotone = all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
    normalized = vals[0] == 0.0 and abs(vals[-1] - 1.0) < 1e-8

    ok = selftest_rc == 0 and deterministic and monotone and normalized
    report(8, ok, f"selftest rc={selftest_rc}, deterministic={deterministic}, "
                  f"monotone={monotone}, normalized={normalized}")
    assert ok, buf.getvalue()
