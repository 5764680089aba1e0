"""Exploratory: jitter sweeps into the deep outage tail.

Sweeps position jitter (sigma_p) and orientation jitter (sigma_o) in the
tight-beam regime, where outage reaches depths (1e-9 and below) that no
Monte Carlo run can certify; only the dual closed-form/quadrature routes
operate there.

Both routes price the moment-matched generalized-K surrogate of the
cascade sum, not the physical sum of N products, and the two part in the
deep tail: on Nakagami(1) x Rice(5 dB) at N = 4 the surrogate's CDF of
A (the aligned OP) is 41% high at 1e-4, 2.2x at 1e-6 and 5.3x at 1e-9;
at N = 16 (this script's array) it is 7%, 21% and 63% high.  Read every
outage below as the surrogate's.

Interpretation caveat: with both jitters active, the split of the total
jitter 4 sigma_p^2 + 4 d_x^2 sigma_o^2 between position and orientation
is only identifiable jointly with the mean-offset parameter d_x, and
published curves of this kind often leave the offset convention
unstated.  This script fixes d_x explicitly and reports it next to every
row, so the numbers are reproducible under this stated convention.
Run:  python demos/05_deep_tail_exploration.py
"""

import math

from ris_outage import (
    GeometryConfig,
    HardwareProfile,
    OutageScenario,
    from_nakagami,
    from_rice,
    misalignment_stats,
    moment_match,
    op_exact,
)

kg = moment_match(from_nakagami(1.0), from_rice(10 ** 0.5), 16)
hw = HardwareProfile()
D_X = 0.1  # mean x-offset convention used throughout this script
GAMMA_OVER_TH_DB = 5.0
gamma = 10.0 ** (GAMMA_OVER_TH_DB / 10.0)

print(f"d_x = {D_X} m, gamma/gamma_th = {GAMMA_OVER_TH_DB} dB, N = 16")
print("sigma_p  sigma_o |     B_o     zeta   |  outage (surrogate)")
for sigma_p in (0.01, 0.03, 0.05, 0.1):
    for sigma_o in (0.01, 0.1, 1.0):
        cfg = GeometryConfig(
            l2=0.105, w_o=1e-3, f=100e9, cn2=2.3e-9, alpha=0.1,
            theta=7 * math.pi / 4, phi=2 * math.pi / 3,
            sigma_p=sigma_p, sigma_o=sigma_o, d_x=D_X,
        )
        mis = misalignment_stats(cfg)
        sc = OutageScenario(kg=kg, hw=hw, gamma=gamma, gamma_th=1.0, mis=mis)
        print(
            f"  {sigma_p:5.2f}  {sigma_o:6.2f} | {mis.b_o:9.5f} {mis.zeta:8.3f} "
            f"| {op_exact(sc):.4e}"
        )
print(
    "\nSmaller jitter means larger zeta: the loss concentrates near B_o and"
    "\nthe outage plunges; Monte Carlo cannot reach these depths, which is"
    "\nwhy the library carries two independent closed-form/quadrature routes."
    "\nBoth price the moment-matched surrogate: at N = 16 its CDF of A is 7%,"
    "\n21% and 63% above the physical sum's at 1e-4, 1e-6 and 1e-9."
)
