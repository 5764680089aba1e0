"""Seeded inputs of the workloads: the curves and the channel statistics
grids.

Each workload has a fixed skeleton (which cases, sweep variables, element
counts and hop families it holds, and how many points each curve has) and
the seed only moves continuous parameters inside narrow ranges.  So the
cost of a pass hardly depends on the seed, while no two seeds give the
same numbers.  The program receives only scenario text (the curves) or
channel parameters (the channel statistics grids).
"""

from __future__ import annotations

import math
import os
import re

import numpy as np

from ris_outage import cascade, fading

BUNDLED = (
    "aligned_elements",
    "distance_sweep",
    "hardware_threshold_sweep",
    "misalignment_shape_sweep",
)
BUNDLED_MC = ("aligned_elements", "hardware_threshold_sweep", "misalignment_shape_sweep")

# tight beam: l2 ~ 0.105 m gives B_o ~ 0.67 and zeta ~ 3.4 (sigma_p = 0.05)
TIGHT_GEOMETRY = {
    "l2": 0.105, "w_o": 1e-3, "f": 100e9, "cn2": 2.3e-9, "alpha": 0.1,
    "theta": 7.0 * math.pi / 4.0, "phi": 2.0 * math.pi / 3.0,
    "sigma_p": 0.05, "sigma_o": 0.1, "d_x": 0.1,
}
_B_O_APPROX = 0.67  # only used to place sweeps in the high-SNR regime


# --- scenario text ---------------------------------------------------------


def parse_blocks(text: str) -> dict:
    """Nested dict of a scenario file; numbers become floats."""
    root: dict = {}
    stack = [root]
    tokens = re.findall(r"[^\s{}=]+\s*=\s*[^\s{}]+|[^\s{}=]+|[{}]", re.sub(r"#.*", "", text))
    name = None
    for tok in tokens:
        if tok == "{":
            stack[-1][name] = {}
            stack.append(stack[-1][name])
        elif tok == "}":
            stack.pop()
        elif "=" in tok:
            key, value = (t.strip() for t in tok.split("=", 1))
            try:
                stack[-1][key] = float(value)
            except ValueError:
                stack[-1][key] = value
        else:
            name = tok
    return root


def _fmt(v) -> str:
    return repr(float(v)) if isinstance(v, float) else str(v)


def render(spec: dict) -> str:
    """Scenario text in the bundled files' format."""
    lines = []

    def block(name, body):
        return f"{name} {{ " + "  ".join(f"{k} = {_fmt(v)}" for k, v in body.items()) + " }"

    lines.append("fading {")
    for hop in ("hop1", "hop2"):
        lines.append("  " + block(hop, spec["fading"][hop]))
    lines.append("}")
    for name in ("ris", "geometry", "hardware", "link", "sweep", "mc"):
        if name in spec:
            lines.append(block(name, spec[name]))
    return "\n".join(lines) + "\n"


def sweep_values(spec: dict) -> list[float]:
    sw = spec["sweep"]
    n = int(sw["points"])
    if n == 1:
        return [sw["start"]]
    step = (sw["stop"] - sw["start"]) / (n - 1)
    return [sw["start"] + i * step for i in range(n)]


# --- scale used to place the sweeps -----------------------------------------


def hop_law(hop: dict) -> fading.MGDistribution:
    """The program's fading law of one hop block of a scenario."""
    if hop["kind"] == "nakagami":
        return fading.from_nakagami(hop["m"], hop.get("omega", 1.0))
    return fading.from_rice(10.0 ** (hop["k_r_db"] / 10.0), int(hop.get("n_terms", 20)))


def matched_law(hop1: dict, hop2: dict, n: int) -> cascade.KGParams:
    """The program's generalized-K law matched to E[A^2], E[A^4], E[A^6]
    of the cascade; the high-SNR expansions are series in (xi x)^2."""
    return cascade.moment_match(hop_law(hop1), hop_law(hop2), n)


def series_route(hop1: dict, hop2: dict, n: int) -> bool:
    """k_a - m_a at least 0.01 from an integer: far outside the band in
    which the program sends every point to its quadrature routes."""
    kg = matched_law(hop1, hop2, n)
    return abs((kg.k_a - kg.m_a) - round(kg.k_a - kg.m_a)) >= 0.01


# --- op_curves -------------------------------------------------------------

# (case, sweep variable, N, hop family); A = aligned, M = misaligned,
# I = ideal front ends, H = impaired.  Aligned curves stop at N = 16,
# where the deepest point is still far above the float range.
_CURVE_SKELETON = (
    ("AI", "gamma_over_gamma_th_db", 4, "NR"),
    ("AI", "gamma_over_gamma_th_db", 8, "NN"),
    ("AI", "gamma_over_gamma_th_db", 16, "NR"),
    ("AH", "gamma_over_gamma_th_db", 4, "NR"),
    ("AH", "gamma_th", 8, "NR"),
    ("AH", "kappa", 16, "NN"),
    ("AH", "kappa", 4, "NR"),
    ("AH", "gamma_th", 16, "NN"),
    ("MI", "gamma_over_gamma_th_db", 4, "NR"),
    ("MI", "gamma_over_gamma_th_db", 32, "NR"),
    ("MI", "gamma_over_gamma_th_db", 64, "NN"),
    ("MI", "sigma_p", 8, "NR"),
    ("MI", "sigma_p", 16, "NN"),
    ("MH", "gamma_over_gamma_th_db", 16, "NR"),
    ("MH", "gamma_over_gamma_th_db", 64, "NR"),
    ("MH", "gamma_th", 32, "NR"),
    ("MH", "kappa", 8, "NN"),
    ("MH", "sigma_p", 64, "NR"),
    ("MH", "kappa", 32, "NR"),
    ("MH", "gamma_th", 4, "NN"),
)


def _hops(rng: np.random.Generator, family: str) -> dict:
    if family == "NR":
        return {
            "hop1": {"kind": "nakagami", "m": round(rng.uniform(0.8, 2.5), 3), "omega": 1.0},
            "hop2": {"kind": "rice", "k_r_db": round(rng.uniform(0.0, 10.0), 3), "n_terms": 20},
        }
    return {
        "hop1": {"kind": "nakagami", "m": round(rng.uniform(0.8, 1.2), 3), "omega": 1.0},
        "hop2": {"kind": "nakagami", "m": round(rng.uniform(2.0, 3.0), 3), "omega": 1.0},
    }


def _curve_spec(rng: np.random.Generator, case: str, variable: str, n: int, family: str) -> dict:
    # op_curves times the series routes: redraw hops whose matched shapes
    # sit near the quadrature band (the grids cover that band on purpose)
    hops = _hops(rng, family)
    while not series_route(hops["hop1"], hops["hop2"], n):
        hops = _hops(rng, family)
    spec: dict = {"fading": hops, "ris": {"n_elements": n}}
    misaligned = case[0] == "M"
    # the expansions are series in (xi x / B_o)^2: unit argument at x = scale
    scale = 1.0 / matched_law(hops["hop1"], hops["hop2"], n).xi
    if misaligned:
        geo = dict(TIGHT_GEOMETRY)
        geo["l2"] = round(rng.uniform(0.095, 0.115), 4)
        geo["sigma_p"] = round(rng.uniform(0.045, 0.055), 4)
        spec["geometry"] = geo
        scale *= _B_O_APPROX
    # the curve's largest x below the threshold ceiling, where the high-SNR
    # expansion is still within ~7% of the exact OP
    x_hi = rng.uniform(0.3, 0.45) * scale
    kappa = (round(rng.uniform(0.1, 0.3), 3), round(rng.uniform(0.1, 0.3), 3)) if case[1] == "H" else (0.0, 0.0)
    gamma_th = round(rng.uniform(1.0, 2.0), 3)
    k2 = kappa[0] ** 2 + kappa[1] ** 2
    if variable == "gamma_over_gamma_th_db":
        eff_ratio = 1.0 / (1.0 - k2 * gamma_th)
        start = round(-20.0 * math.log10(x_hi / math.sqrt(eff_ratio)), 3)
        span = round(rng.uniform(20.0, 30.0), 3)
        spec["link"] = {"gamma_th": gamma_th}
        spec["sweep"] = {"variable": variable, "start": start, "stop": round(start + span, 3), "points": 9}
    elif variable == "gamma_th":
        kappa = (round(rng.uniform(0.15, 0.3), 3), round(rng.uniform(0.15, 0.3), 3))
        ceiling = 1.0 / (kappa[0] ** 2 + kappa[1] ** 2)
        # points at 0.1 .. 1.1 of the ceiling; the last one lies past it
        gamma = 9.0 * ceiling / x_hi**2
        spec["link"] = {"gamma_db": round(10.0 * math.log10(gamma), 4)}
        spec["sweep"] = {"variable": variable, "start": round(0.1 * ceiling, 5),
                         "stop": round(1.1 * ceiling, 5), "points": 6}
    elif variable == "kappa":
        kappa = (0.0, 0.0)
        kappa_c = math.sqrt(0.5 / gamma_th)
        # points at 0 .. 1.1 of the ceiling kappa; 0.88 of it gives 4.43 gamma_th
        gamma = 4.43 * gamma_th / x_hi**2
        spec["link"] = {"gamma_db": round(10.0 * math.log10(gamma), 4), "gamma_th": gamma_th}
        spec["sweep"] = {"variable": variable, "start": 0.0, "stop": round(1.1 * kappa_c, 5), "points": 6}
    else:  # sigma_p: zeta from about 7 down to 1.5
        eff = gamma_th / (1.0 - k2 * gamma_th)
        gamma = eff / x_hi**2
        spec["link"] = {"gamma_db": round(10.0 * math.log10(gamma), 4), "gamma_th": gamma_th}
        spec["sweep"] = {"variable": variable, "start": 0.035, "stop": 0.075, "points": 6}
    spec["hardware"] = {"kappa_s": kappa[0], "kappa_d": kappa[1]}
    return spec


def op_curves(seed: int, root: str) -> list[tuple[str, dict, str]]:
    """(name, spec, text) for the bundled scenarios plus 20 generated
    tight-beam curves."""
    rng = np.random.default_rng([seed, 1])
    out = _bundled(root, BUNDLED)
    for i, (case, variable, n, family) in enumerate(_CURVE_SKELETON):
        spec = _curve_spec(rng, case, variable, n, family)
        out.append((f"gen{i:02d}_{case}_{variable}_N{n}", spec, render(spec)))
    return out


def _bundled(root: str, names) -> list[tuple[str, dict, str]]:
    out = []
    for name in names:
        with open(os.path.join(root, "scenarios", f"{name}.scenario"), encoding="utf-8") as fh:
            text = fh.read()
        out.append((name, parse_blocks(text), text))
    return out


# --- op_curves_mc ----------------------------------------------------------

# Each generated MC curve takes its parameters from a short list, so the
# set of curves any seed can produce is finite and every one of them can be
# checked against the 4-sigma gate once, with fixed sampling seeds.
_MC_SKELETON = (
    # (aligned?, N, hop choices, kappa choices, xi x (/ B_o) at the first point)
    (True, 4, [("nakagami", 1.0, "nakagami", m2) for m2 in (2.5, 3.0)], (0.0,), (1.2, 1.4)),
    (False, 8, [("nakagami", 1.0, "rice", k) for k in (3.0, 5.0, 7.0)], (0.0, 0.15), (3.0, 3.5)),
    (True, 4, [("nakagami", 1.5, "rice", k) for k in (0.0, 2.0, 4.0)], (0.1, 0.2), (1.2, 1.4)),
    (False, 16, [("nakagami", 1.0, "nakagami", m2) for m2 in (2.0, 3.0)], (0.0, 0.1), (3.0, 3.5)),
)
# The aligned expansion leaves its regime (and is clamped) once OP passes
# ~1e-3, the misaligned one only near OP ~ 0.1: each curve starts where its
# expansion still holds and MC still sees outages, and spans 3 dB.
MC_SAMPLES = 1 << 16


def _mc_hop(kind: str, value: float) -> dict:
    if kind == "nakagami":
        return {"kind": "nakagami", "m": value, "omega": 1.0}
    return {"kind": "rice", "k_r_db": value, "n_terms": 20}


def op_curves_mc(seed: int, root: str) -> list[tuple[str, dict, str]]:
    rng = np.random.default_rng([seed, 2])
    out = _bundled(root, BUNDLED_MC)
    for i, (aligned, n, hops, kappas, c_his) in enumerate(_MC_SKELETON):
        k1, v1, k2, v2 = hops[int(rng.integers(len(hops)))]
        kappa = kappas[int(rng.integers(len(kappas)))]
        c_hi = c_his[int(rng.integers(len(c_his)))]
        spec: dict = {"fading": {"hop1": _mc_hop(k1, v1), "hop2": _mc_hop(k2, v2)},
                      "ris": {"n_elements": n}}
        scale = 1.0 / matched_law(spec["fading"]["hop1"], spec["fading"]["hop2"], n).xi
        if not aligned:
            spec["geometry"] = dict(TIGHT_GEOMETRY)
            scale *= _B_O_APPROX
        gamma_th = 1.0
        eff_ratio = 1.0 / (1.0 - 2.0 * kappa**2 * gamma_th)
        start = round(-20.0 * math.log10(c_hi * scale / math.sqrt(eff_ratio)), 3)
        spec["hardware"] = {"kappa_s": kappa, "kappa_d": kappa}
        spec["link"] = {"gamma_th": gamma_th}
        spec["sweep"] = {"variable": "gamma_over_gamma_th_db", "start": start,
                         "stop": round(start + 3.0, 3), "points": 3}
        spec["mc"] = {"samples": MC_SAMPLES, "seed": 101 + i}
        out.append((f"mc{i}_{'A' if aligned else 'M'}_N{n}", spec, render(spec)))
    return out


# --- channel statistics grids ----------------------------------------------

# (N, hop centres, kind); kind "generic" uses (B_o, zeta) as drawn, "pole"
# puts zeta/2 on the pole lattice at m_a, "integer" moves k_a - m_a to
# within 5e-4 of an integer.  Most of a pass is spent in the quadrature
# routes, whose cost depends on the matched shapes, so the seed moves the
# hop parameters by a few per cent only.  Grid abscissae are fractions of
# sqrt(omega_a) (times B_o for the end-to-end gain).
_STATS_SKELETON = (
    (4, ("nakagami", 1.0, "rice", 5.0), "generic"),
    (8, ("nakagami", 1.0, "nakagami", 2.5), "generic"),
    (16, ("nakagami", 1.5, "rice", 3.0), "generic"),
    (32, ("nakagami", 1.0, "rice", 6.0), "generic"),
    (8, ("nakagami", 1.2, "rice", 4.0), "pole"),
    (4, ("nakagami", 1.0, "rice", 5.0), "integer"),
)
GRID = tuple(float(u) for u in np.geomspace(0.05, 1.5, 10))


def channel_stats(seed: int) -> list[dict]:
    """Parameter sets: hop dicts, N, (B_o, zeta) and how to treat the
    matched shapes; the caller matches the moments with the program."""
    rng = np.random.default_rng([seed, 3])
    out = []
    for i, (n, (k1, v1, k2, v2), kind) in enumerate(_STATS_SKELETON):
        while True:
            hops = [_mc_hop(k, round(v * rng.uniform(0.97, 1.03), 4) if k == "nakagami"
                            else round(v + rng.uniform(-0.3, 0.3), 3))
                    for k, v in ((k1, v1), (k2, v2))]
            # only the "integer" set belongs in the quadrature band
            if kind == "integer" or series_route(hops[0], hops[1], n):
                break
        out.append({
            "name": f"set{i}_{kind}_N{n}",
            "hop1": hops[0], "hop2": hops[1], "n": n, "kind": kind,
            "b_o": round(rng.uniform(0.65, 0.69), 4),
            "zeta": round(rng.uniform(3.3, 3.6), 4),
            "integer_offset": float(rng.uniform(-5e-4, 5e-4)),
        })
    return out
