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

Multiple `key = value` pairs may share a line inside `{ ... }`, and each
`key = value` triple sits on one line.  A block or key that is not part
of the format is a parse error.  The keys and defaults of the
`hardware`, `geometry`, `mc` and `sweep` blocks are the fields of
`HardwareProfile`, `GeometryConfig`, `MCConfig` and `SweepSpec`, and
those of a hop the arguments of `from_nakagami` or `from_rice` (with
`k_r_db` in dB).  A value that the type or factory refuses is a parse
error that names the block.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields, replace as dc_replace

from .errors import ConfigError, RisOutageError, _is_int
from .fading import MGDistribution, from_nakagami, from_rice
from .geometry import GeometryConfig
from .montecarlo import MCConfig
from .outage import HardwareProfile

__all__ = ["ScenarioFile", "SweepSpec", "parse_scenario", "load_scenario"]

# the ScenarioFile input that each sweep variable replaces: a geometry
# sweep sets the GeometryConfig field of its name, kappa both kappa_s and kappa_d
SWEPT_INPUT = {
    "gamma_over_gamma_th_db": "gamma",
    "gamma_th": "gamma_th",
    **dict.fromkeys(("sigma_p", "l2", "alpha", "phi"), "geometry"),
    "kappa": "hardware",
}
SWEEP_VARIABLES = tuple(SWEPT_INPUT)


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


@dataclass(frozen=True)
class SweepSpec:
    variable: str
    start: float
    stop: float
    points: int

    def __post_init__(self):
        if self.variable not in SWEEP_VARIABLES:
            raise ConfigError(
                f"unknown sweep variable {self.variable!r}; expected one of {SWEEP_VARIABLES}"
            )
        if not (_is_int(self.points) and self.points >= 1):
            raise ConfigError(f"points must be an integer >= 1, got {self.points!r}")
        if not self.start <= self.stop:
            raise ConfigError("sweep range must be ordered (start <= stop)")
        if self.points > 1 and not math.isfinite(self.stop - self.start):
            raise ConfigError("sweep range is too wide: stop - start leaves float range")

    def unused(self, what: str) -> str:
        """The refusal of what, an input that this sweep replaces."""
        return f"{what} is not used: the {self.variable} sweep sets {SWEPT_INPUT[self.variable]}"

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

    def point_inputs(self, value: float) -> tuple:
        """(hardware, geometry, gamma, gamma_th) at one sweep value: the
        scenario's own, but for the input that the sweep sets."""
        inputs = {"hardware": self.hardware, "geometry": self.geometry,
                  "gamma": self.gamma, "gamma_th": self.gamma_th}
        sets = SWEPT_INPUT[self.sweep.variable]
        if sets == "gamma":
            value = self.gamma_th * _from_db(value)
        elif sets == "hardware":
            value = HardwareProfile(kappa_s=value, kappa_d=value)
        elif sets == "geometry":
            value = dc_replace(self.geometry, **{self.sweep.variable: value})
        inputs[sets] = value
        return tuple(inputs.values())


def _to_float(v: str) -> float:
    x = float(v)
    if not math.isfinite(x):
        raise ValueError(v)
    return x


def _to_int(v: str) -> int:
    try:
        return int(v)  # exact past 2^53
    except ValueError:
        x = _to_float(v)  # the 1e6 form
    if x != int(x):
        raise ValueError(v)
    return int(x)


def _from_db(db: float) -> float:
    """10^(db/10); inf past float range."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf


def _rice_from_db(k_r_db: float, **kwargs) -> MGDistribution:
    return from_rice(_from_db(k_r_db), **kwargs)


# the config type of each typed block, whose fields are the block's keys,
# and the converters of its non-float fields
_TYPED_BLOCKS = {
    "hardware": (HardwareProfile, {}),
    "sweep": (SweepSpec, {"variable": str, "points": _to_int}),
    "geometry": (GeometryConfig, {}),
    "mc": (MCConfig, {"samples": _to_int, "seed": _to_int,
                      "workers": lambda v: v if v == "auto" else _to_int(v)}),
}
# the factory and the keys of each hop kind, required key first; the
# other key, left out, takes the factory's default
_HOP_KINDS = {
    "nakagami": (from_nakagami, ("m", "omega")),
    "rice": (_rice_from_db, ("k_r_db", "n_terms")),
}
# the keys of each block, by dotted path; the keys of a hop depend on its
# kind, and a block holds only the blocks listed below it
_BLOCK_KEYS = {
    "fading": (),
    "fading.hop1": None,
    "fading.hop2": None,
    "ris": ("n_elements",),
    "link": ("gamma_db", "gamma_th_db", "gamma_th"),
    **{name: tuple(f.name for f in fields(cls)) for name, (cls, _) in _TYPED_BLOCKS.items()},
}


def _parse_blocks(text: str) -> dict:
    """The nested blocks of text, each value a (word, line) pair.  A line
    splits into words with '{', '}' and '=' standing alone."""
    root: dict = {}
    stack: list[dict] = [root]
    paths: list[str] = [""]
    pending_name: str | None = None
    pending_line = 0
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0]
        words = line.replace("{", " { ").replace("}", " } ").replace("=", " = ").split()
        i = 0
        while i < len(words):
            word = words[i]
            pair = i + 2 < len(words) and words[i + 1] == "="
            if pending_name is not None and (pair or word != "{"):
                what = "missing value for key" if word == "=" else "dangling block name"
                raise ScenarioParseError(f"{what} '{pending_name}'", pending_line)
            if pair:
                keys = _BLOCK_KEYS.get(paths[-1], ())
                if keys is not None and word not in keys:
                    raise _bad_key("unknown", paths[-1], word, lineno)
                if word in stack[-1]:
                    raise _bad_key("duplicate", paths[-1], word, lineno)
                stack[-1][word] = (words[i + 2], lineno)
                i += 3
                continue
            i += 1
            if word == "{":
                if pending_name is None:
                    raise ScenarioParseError("'{' without a block name", lineno)
                path = _join(paths[-1], pending_name)
                if path not in _BLOCK_KEYS:
                    raise ScenarioParseError(
                        f"unknown block '{pending_name}'", lineno, field_name=path
                    )
                if pending_name in stack[-1]:
                    raise ScenarioParseError(f"duplicate block '{pending_name}'", lineno)
                new: dict = {}
                stack[-1][pending_name] = new
                stack.append(new)
                paths.append(path)
                pending_name = None
            elif word == "}":
                if len(stack) == 1:
                    raise ScenarioParseError("unmatched '}'", lineno)
                stack.pop()
                paths.pop()
            else:
                pending_name, pending_line = word, lineno
    if pending_name is not None:
        raise ScenarioParseError(f"dangling block name '{pending_name}'", pending_line)
    if len(stack) != 1:
        raise ScenarioParseError("unclosed block at end of file")
    return root


def _join(path: str, name: str) -> str:
    return f"{path}.{name}" if path else name


def _bad_key(what: str, path: str, key: str, lineno: int) -> ScenarioParseError:
    return ScenarioParseError(f"{what} key '{key}'", lineno, field_name=_join(path, key))


def _get_scalar(block: dict, key: str, conv, path: str):
    if key not in block:
        raise ScenarioParseError("missing required field", field_name=_join(path, key))
    value, lineno = block[key]
    try:
        return conv(value)
    except (TypeError, ValueError):
        raise ScenarioParseError(
            f"cannot interpret value {value!r}", line=lineno, field_name=_join(path, key)
        ) from None


def _build(path: str, factory, block: dict, converters: dict, required):
    """factory(**block), each value a float unless converters names the
    key; a value that the factory refuses is a parse error of the block."""
    keys = dict.fromkeys([*required, *block])  # a missing required key raises
    kwargs = {key: _get_scalar(block, key, converters.get(key, _to_float), path) for key in keys}
    try:
        return factory(**kwargs)
    except RisOutageError as exc:
        raise ScenarioParseError(str(exc), field_name=path) from None


def _build_typed(name: str, block: dict):
    cls, converters = _TYPED_BLOCKS[name]
    required = [f.name for f in fields(cls) if f.default is MISSING]
    return _build(name, cls, block, converters, required)


def _build_hop(block: dict, path: str) -> MGDistribution:
    kind = _get_scalar(block, "kind", str, path)
    if kind not in _HOP_KINDS:
        raise ScenarioParseError(
            f"unknown fading kind {kind!r} (expected nakagami or rice)", field_name=path
        )
    factory, keys = _HOP_KINDS[kind]
    params = {key: entry for key, entry in block.items() if key != "kind"}
    for key, (_, lineno) in params.items():
        if key not in keys:
            raise _bad_key("unknown", path, key, lineno)
    return _build(path, factory, params, {"n_terms": _to_int}, keys[:1])


def _link(block: dict) -> dict:
    """The linear gamma and gamma_th that the link block sets."""
    if "gamma_th" in block and "gamma_th_db" in block:
        raise ScenarioParseError(
            "gamma_th and gamma_th_db both set the threshold",
            block["gamma_th_db"][1],
            field_name="link",
        )
    link = {}
    for key, name, to_linear in (
        ("gamma_db", "gamma", _from_db),
        ("gamma_th_db", "gamma_th", _from_db),
        ("gamma_th", "gamma_th", float),
    ):
        if key in block:
            value = to_linear(_get_scalar(block, key, _to_float, "link"))
            if not 0.0 < value < math.inf:
                raise ScenarioParseError(
                    f"{name} must be positive and finite, got {value!r}",
                    block[key][1],
                    field_name=f"link.{key}",
                )
            link[name] = value
    return link


def parse_scenario(text: str) -> ScenarioFile:
    root = _parse_blocks(text)

    for required in ("fading", "ris", "hardware", "sweep"):
        if required not in root:
            raise ScenarioParseError("missing required block", field_name=required)

    fading = root["fading"]
    hops = {}
    for hop in ("hop1", "hop2"):
        if hop not in fading:
            raise ScenarioParseError("missing hop block", field_name=f"fading.{hop}")
        hops[hop] = _build_hop(fading[hop], f"fading.{hop}")

    n_elements = _get_scalar(root["ris"], "n_elements", _to_int, "ris")
    if n_elements < 1:
        raise ScenarioParseError("n_elements must be >= 1", field_name="ris.n_elements")

    typed = {name: _build_typed(name, root[name]) for name in _TYPED_BLOCKS if name in root}
    link = _link(root.get("link", {}))

    sweep = typed["sweep"]
    sets = SWEPT_INPUT[sweep.variable]
    if sets == "gamma" and "gamma" in link:
        raise ScenarioParseError(
            sweep.unused("gamma_db"), root["link"]["gamma_db"][1], field_name="link.gamma_db"
        )
    if sets != "gamma" and "gamma" not in link:
        raise ScenarioParseError(
            "sweeps other than gamma_over_gamma_th_db need link { gamma_db = ... }",
            field_name="link.gamma_db",
        )
    if sets == "geometry" and "geometry" not in typed:
        raise ScenarioParseError(
            f"sweep over {sweep.variable} requires a geometry block",
            field_name="geometry",
        )

    return ScenarioFile(**hops, n_elements=n_elements, **typed, **link)


def load_scenario(path: str) -> ScenarioFile:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ScenarioParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    return parse_scenario(text)
