"""Scenario files: a flat block-structured text format.

Grammar (line oriented):
    name {          open a block
    key = value     scalar entry (number or bare word)
    }               close block
    # ...           comment
Example::

    fading {
      hop1 { kind = nakagami  m = 1.0  omega = 1.0 }
      hop2 { kind = rice  k_r_db = 5.0  n_terms = 20 }
    }
    ris { n_elements = 16 }
    geometry { l2 = 5.0  w_o = 1e-3  f = 100e9  cn2 = 2.3e-9  alpha = 0.1
               theta = 5.4977871  phi = 2.0943951  sigma_p = 0.05
               sigma_o = 0.0  d_x = 0.0 }
    hardware { kappa_s = 0.0  kappa_d = 0.0 }
    link { gamma_th = 1.0 }
    sweep { variable = gamma_over_gamma_th_db  start = -10  stop = 10  points = 21 }
    mc { samples = 1000000  seed = 42 }

Multiple `key = value` pairs may share a line inside `{ ... }`.  A block
or key that is not part of the format is a parse error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError
from .fading import MGDistribution, from_nakagami, from_rice
from .geometry import GeometryConfig
from .montecarlo import MCConfig
from .outage import HardwareProfile

__all__ = ["ScenarioFile", "SweepSpec", "parse_scenario", "load_scenario"]

SWEEP_VARIABLES = (
    "gamma_over_gamma_th_db",
    "gamma_th",
    "sigma_p",
    "l2",
    "alpha",
    "phi",
    "kappa",
)


class ScenarioParseError(ConfigError):
    """Parse failure with location information."""

    def __init__(self, message: str, line: int | None = None, field_name: str | None = None):
        loc = []
        if line is not None:
            loc.append(f"line {line}")
        if field_name is not None:
            loc.append(f"field '{field_name}'")
        suffix = f" ({', '.join(loc)})" if loc else ""
        super().__init__(message + suffix)
        self.line = line
        self.field_name = field_name


@dataclass(frozen=True)
class SweepSpec:
    variable: str
    start: float
    stop: float
    points: int

    def values(self) -> list[float]:
        if self.points == 1:
            return [self.start]
        step = (self.stop - self.start) / (self.points - 1)
        return [self.start + i * step for i in range(self.points)]


@dataclass(frozen=True)
class ScenarioFile:
    hop1: MGDistribution
    hop2: MGDistribution
    n_elements: int
    hardware: HardwareProfile
    sweep: SweepSpec
    geometry: GeometryConfig | None = None
    mc: MCConfig | None = None
    gamma: float | None = None      # linear; required unless sweeping the ratio
    gamma_th: float = 1.0           # linear


# the keys of each block, by dotted path; the keys of a hop depend on its
# kind (_HOP_KEYS), and a block holds only the blocks listed below it
_BLOCK_KEYS = {
    "fading": (),
    "fading.hop1": None,
    "fading.hop2": None,
    "ris": ("n_elements",),
    "hardware": ("kappa_s", "kappa_d"),
    "sweep": ("variable", "start", "stop", "points"),
    "geometry": (
        "l2", "w_o", "f", "cn2", "alpha", "theta", "phi", "sigma_p", "sigma_o", "d_x"
    ),
    "mc": ("samples", "seed", "chunk_size", "workers"),
    "link": ("gamma_db", "gamma_th_db", "gamma_th"),
}
_HOP_KEYS = {
    "nakagami": ("kind", "m", "omega"),
    "rice": ("kind", "k_r_db", "n_terms"),
}


def _tokenize(text: str):
    """Yield (line_number, token) with tokens '{', '}', 'key=value' or 'name'."""
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        # normalize '=' spacing then split; braces become separate tokens
        line = line.replace("{", " { ").replace("}", " } ").replace("=", " = ")
        parts = line.split()
        i = 0
        while i < len(parts):
            if i + 2 < len(parts) and parts[i + 1] == "=":
                yield lineno, ("pair", parts[i], parts[i + 2])
                i += 3
            elif parts[i] == "{":
                yield lineno, ("open", None, None)
                i += 1
            elif parts[i] == "}":
                yield lineno, ("close", None, None)
                i += 1
            else:
                yield lineno, ("name", parts[i], None)
                i += 1


def _parse_blocks(text: str) -> dict:
    root: dict = {}
    stack: list[dict] = [root]
    paths: list[str] = [""]
    pending_name: str | None = None
    pending_line = 0
    for lineno, (kind, a, b) in _tokenize(text):
        if kind == "name":
            if pending_name is not None:
                raise ScenarioParseError(
                    f"dangling block name '{pending_name}'", pending_line
                )
            pending_name, pending_line = a, lineno
        elif kind == "open":
            if pending_name is None:
                raise ScenarioParseError("'{' without a block name", lineno)
            path = _join(paths[-1], pending_name)
            if path not in _BLOCK_KEYS:
                raise ScenarioParseError(
                    f"unknown block '{pending_name}'", lineno, field_name=path
                )
            new: dict = {}
            if pending_name in stack[-1]:
                raise ScenarioParseError(f"duplicate block '{pending_name}'", lineno)
            stack[-1][pending_name] = new
            stack.append(new)
            paths.append(path)
            pending_name = None
        elif kind == "close":
            if pending_name is not None:
                raise ScenarioParseError(
                    f"dangling block name '{pending_name}'", pending_line
                )
            if len(stack) == 1:
                raise ScenarioParseError("unmatched '}'", lineno)
            stack.pop()
            paths.pop()
        else:  # pair
            if pending_name is not None:
                raise ScenarioParseError(
                    f"dangling block name '{pending_name}'", pending_line
                )
            keys = _BLOCK_KEYS.get(paths[-1], ())
            if keys is not None and a not in keys:
                raise _bad_key("unknown", paths[-1], a, lineno)
            if a in stack[-1]:
                raise _bad_key("duplicate", paths[-1], a, lineno)
            stack[-1][a] = (b, lineno)
    if pending_name is not None:
        raise ScenarioParseError(f"dangling block name '{pending_name}'", pending_line)
    if len(stack) != 1:
        raise ScenarioParseError("unclosed block at end of file")
    return root


def _join(path: str, name: str) -> str:
    return f"{path}.{name}" if path else name


def _bad_key(what: str, path: str, key: str, lineno: int) -> ScenarioParseError:
    return ScenarioParseError(f"{what} key '{key}'", lineno, field_name=_join(path, key))


_MISSING = object()


def _get_scalar(block: dict, key: str, conv, *, default=_MISSING):
    if key not in block:
        if default is not _MISSING:
            return default
        raise ScenarioParseError(f"missing required field", field_name=key)
    value, lineno = block[key]
    try:
        return conv(value)
    except (TypeError, ValueError):
        raise ScenarioParseError(
            f"cannot interpret value {value!r}", line=lineno, field_name=key
        ) from None


def _to_float(v: str) -> float:
    x = float(v)
    if not math.isfinite(x):
        raise ValueError(v)
    return x


def _to_int(v: str) -> int:
    x = _to_float(v)
    if x != int(x):
        raise ValueError(v)
    return int(x)


def _build_hop(block: dict, name: str) -> MGDistribution:
    kind = _get_scalar(block, "kind", str)
    if kind not in _HOP_KEYS:
        raise ScenarioParseError(
            f"unknown fading kind {kind!r} (expected nakagami or rice)", field_name=name
        )
    for key, (_, lineno) in block.items():
        if key not in _HOP_KEYS[kind]:
            raise _bad_key("unknown", name, key, lineno)
    if kind == "nakagami":
        m = _get_scalar(block, "m", _to_float)
        omega = _get_scalar(block, "omega", _to_float, default=1.0)
        return from_nakagami(m, omega)
    k_r_db = _get_scalar(block, "k_r_db", _to_float)
    n_terms = _get_scalar(block, "n_terms", _to_int, default=20)
    return from_rice(10.0 ** (k_r_db / 10.0), n_terms)


def parse_scenario(text: str) -> ScenarioFile:
    root = _parse_blocks(text)

    for required in ("fading", "ris", "hardware", "sweep"):
        if required not in root:
            raise ScenarioParseError("missing required block", field_name=required)

    fading = root["fading"]
    for hop in ("hop1", "hop2"):
        if hop not in fading:
            raise ScenarioParseError("missing hop block", field_name=f"fading.{hop}")
    hop1 = _build_hop(fading["hop1"], "fading.hop1")
    hop2 = _build_hop(fading["hop2"], "fading.hop2")

    n_elements = _get_scalar(root["ris"], "n_elements", _to_int)
    if n_elements < 1:
        raise ScenarioParseError("n_elements must be >= 1", field_name="ris.n_elements")

    hw = HardwareProfile(
        kappa_s=_get_scalar(root["hardware"], "kappa_s", _to_float, default=0.0),
        kappa_d=_get_scalar(root["hardware"], "kappa_d", _to_float, default=0.0),
    )

    sweep_block = root["sweep"]
    variable = _get_scalar(sweep_block, "variable", str)
    if variable not in SWEEP_VARIABLES:
        raise ScenarioParseError(
            f"unknown sweep variable {variable!r}; expected one of {SWEEP_VARIABLES}",
            field_name="sweep.variable",
        )
    start = _get_scalar(sweep_block, "start", _to_float)
    stop = _get_scalar(sweep_block, "stop", _to_float)
    points = _get_scalar(sweep_block, "points", _to_int)
    if points < 1:
        raise ScenarioParseError("points must be >= 1", field_name="sweep.points")
    if stop < start:
        raise ScenarioParseError(
            "sweep range must be ordered (start <= stop)", field_name="sweep"
        )
    sweep = SweepSpec(variable=variable, start=start, stop=stop, points=points)

    geometry = None
    if "geometry" in root:
        g = root["geometry"]
        geometry = GeometryConfig(
            l2=_get_scalar(g, "l2", _to_float),
            w_o=_get_scalar(g, "w_o", _to_float),
            f=_get_scalar(g, "f", _to_float),
            cn2=_get_scalar(g, "cn2", _to_float),
            alpha=_get_scalar(g, "alpha", _to_float),
            theta=_get_scalar(g, "theta", _to_float),
            phi=_get_scalar(g, "phi", _to_float),
            sigma_p=_get_scalar(g, "sigma_p", _to_float),
            sigma_o=_get_scalar(g, "sigma_o", _to_float, default=0.0),
            d_x=_get_scalar(g, "d_x", _to_float, default=0.0),
        )

    mc = None
    if "mc" in root:
        m = root["mc"]
        mc = MCConfig(
            samples=_get_scalar(m, "samples", _to_int),
            seed=_get_scalar(m, "seed", _to_int, default=0),
            chunk_size=_get_scalar(m, "chunk_size", _to_int, default=1 << 16),
            workers=_get_scalar(
                m, "workers", lambda v: v if v == "auto" else _to_int(v), default="auto"
            ),
        )

    gamma = None
    gamma_th = 1.0
    if "link" in root:
        link = root["link"]
        if "gamma_db" in link:
            gamma = 10.0 ** (_get_scalar(link, "gamma_db", _to_float) / 10.0)
        if "gamma_th_db" in link:
            gamma_th = 10.0 ** (_get_scalar(link, "gamma_th_db", _to_float) / 10.0)
        elif "gamma_th" in link:
            gamma_th = _get_scalar(link, "gamma_th", _to_float)

    if sweep.variable != "gamma_over_gamma_th_db" and gamma is None:
        raise ScenarioParseError(
            "sweeps other than gamma_over_gamma_th_db need link { gamma_db = ... }",
            field_name="link.gamma_db",
        )
    if sweep.variable in ("sigma_p", "l2", "alpha", "phi") and geometry is None:
        raise ScenarioParseError(
            f"sweep over {sweep.variable} requires a geometry block",
            field_name="geometry",
        )

    return ScenarioFile(
        hop1=hop1,
        hop2=hop2,
        n_elements=n_elements,
        hardware=hw,
        sweep=sweep,
        geometry=geometry,
        mc=mc,
        gamma=gamma,
        gamma_th=gamma_th,
    )


def load_scenario(path: str) -> ScenarioFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())
