"""Scenario configuration: strict parsing with field-path error
messages, seeded generators for weights/symbols/functions, and the
default verification suite.

A config document is a single JSON object: either one scenario or
{"scenarios": [scenario, ...]}.  Every random draw is owned by an
explicit seed; generator randomness is keyed per role so adding a
generator never shifts another role's stream.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .space import MAX_POINTS, SPACE_KINDS, QuasiMetricSpace, build_space
from .verify import JN_EPS

# per generator kind, the parameters its make_* function reads
_WEIGHT_PARAMS = {"ones": (), "lognormal": ("mu", "sigma"), "power": ("a",)}
_SYMBOL_PARAMS = {
    "constant": ("value",),
    "abs_lognormal": ("sigma",),
    "log_coord": (),
    "abs_wave": ("freq",),
}
_FUNCTION_PARAMS = {
    "ones": (),
    "lognormal": ("sigma",),
    "signed_lognormal": ("sigma",),
    "point": ("index",),
    "ball": ("center", "radius"),
}
_INTEGER_PARAMS = ("index", "center")
_NONNEGATIVE_PARAMS = ("sigma", "value")
_POSITIVE_PARAMS = ("radius",)
WEIGHT_KINDS = tuple(_WEIGHT_PARAMS)
SYMBOL_KINDS = tuple(_SYMBOL_PARAMS)
FUNCTION_KINDS = tuple(_FUNCTION_PARAMS)
# the names the checks read through ScenarioConfig.tol
TOLERANCE_NAMES = ("exact", "holder", "ap_duality", "capture_shortfall", "eta_floor")
CHECK_NAMES = (
    "system",
    "domination",
    "oscillation",
    "upper",
    "lower",
    "jn",
    "exponent",
    "identities",
)
_ROLE_STREAMS = {"lambda1": 1, "lambda2": 2, "symbol": 3, "function": 4}
# scenario ids name report rows and certificate files, so they stay
# free of CSV delimiters, line breaks and path separators
_SCENARIO_ID = re.compile(r"[A-Za-z0-9._-]+")


class ConfigError(ValueError):
    """Invalid configuration; `field` is the offending field path."""

    def __init__(self, field_path: str, message: str) -> None:
        self.field = field_path
        super().__init__(f"{field_path}: {message}")


@dataclass
class ScenarioConfig:
    scenario: str
    space: Dict[str, object]
    seed: int
    p: float = 2.0
    delta: float = 0.5
    t_count: int = 3
    lambda1: Dict[str, object] = field(default_factory=lambda: {"kind": "ones"})
    lambda2: Dict[str, object] = field(default_factory=lambda: {"kind": "ones"})
    symbol: Dict[str, object] = field(default_factory=lambda: {"kind": "abs_wave"})
    function: Dict[str, object] = field(default_factory=lambda: {"kind": "lognormal"})
    probes: int = 8
    ball_cap: Optional[int] = 4096
    rho_cap: float = 100.0
    r_values: List[float] = field(default_factory=lambda: [1.0, 2.0])
    checks: List[str] = field(
        default_factory=lambda: [c for c in CHECK_NAMES if c != "exponent"]
    )
    tolerances: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "space": dict(self.space),
            "seed": self.seed,
            "p": self.p,
            "delta": self.delta,
            "t_count": self.t_count,
            "lambda1": dict(self.lambda1),
            "lambda2": dict(self.lambda2),
            "symbol": dict(self.symbol),
            "function": dict(self.function),
            "probes": self.probes,
            "ball_cap": self.ball_cap,
            "rho_cap": self.rho_cap,
            "r_values": list(self.r_values),
            "checks": list(self.checks),
            "tolerances": dict(self.tolerances),
        }

    def tol(self, name: str, default: float) -> float:
        return float(self.tolerances.get(name, default))


_FIELD_TYPES = {
    "scenario": str,
    "space": dict,
    "seed": int,
    "p": (int, float),
    "delta": (int, float),
    "t_count": int,
    "lambda1": dict,
    "lambda2": dict,
    "symbol": dict,
    "function": dict,
    "probes": int,
    "ball_cap": (int, type(None)),
    "rho_cap": (int, float),
    "r_values": list,
    "checks": list,
    "tolerances": dict,
}


def _finite_number(val: object) -> bool:
    """A number other than a bool, NaN, an infinity or an int beyond
    float range (JSON reads the literals NaN and Infinity as floats)."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return False
    try:
        return math.isfinite(val)
    except OverflowError:
        return False


def _check_generator(spec: Dict[str, object], params: Dict[str, tuple], path: str) -> None:
    """A generator spec names a known kind and only that kind's
    parameters, each a finite number (an integer for point ids, and
    positive for a ball radius)."""
    kind = spec.get("kind")
    if kind not in params:
        raise ConfigError(f"{path}.kind", f"must be one of {tuple(params)}")
    for key in sorted(set(spec) - {"kind"}):
        val = spec[key]
        if key not in params[kind]:
            raise ConfigError(f"{path}.{key}", f"unknown parameter for kind {kind!r}")
        if key in _INTEGER_PARAMS:
            if isinstance(val, bool) or not isinstance(val, int):
                raise ConfigError(f"{path}.{key}", "must be an integer")
        elif not _finite_number(val):
            raise ConfigError(f"{path}.{key}", "must be a finite number")
        if key in _NONNEGATIVE_PARAMS and val < 0:
            raise ConfigError(f"{path}.{key}", "must be nonnegative")
        if key in _POSITIVE_PARAMS and val <= 0:
            raise ConfigError(f"{path}.{key}", "must be positive")


def _parse_scenario(doc: object, path: str) -> ScenarioConfig:
    if not isinstance(doc, dict):
        raise ConfigError(path, "scenario must be an object")
    unknown = set(doc) - set(_FIELD_TYPES)
    if unknown:
        raise ConfigError(f"{path}.{sorted(unknown)[0]}", "unknown field")
    for key in ("scenario", "space", "seed"):
        if key not in doc:
            raise ConfigError(f"{path}.{key}", "required field is missing")
    merged = ScenarioConfig(
        scenario="", space={}, seed=0
    ).to_dict()  # defaults
    merged.update(doc)
    for key, types in _FIELD_TYPES.items():
        if not isinstance(merged[key], types) or isinstance(merged[key], bool):
            raise ConfigError(f"{path}.{key}", "wrong type")
    if not _SCENARIO_ID.fullmatch(merged["scenario"]):
        raise ConfigError(f"{path}.scenario", "must match [A-Za-z0-9._-]+")
    for key in ("p", "delta", "rho_cap"):
        if not _finite_number(merged[key]):
            raise ConfigError(f"{path}.{key}", "must be a finite number")
    if float(merged["p"]) <= 1.0:
        raise ConfigError(f"{path}.p", "must exceed 1")
    if merged["rho_cap"] <= 0:
        raise ConfigError(f"{path}.rho_cap", "must be positive")
    if not 0.0 < float(merged["delta"]) < 1.0:
        raise ConfigError(f"{path}.delta", "must lie in (0, 1)")
    if merged["seed"] < 0:
        raise ConfigError(f"{path}.seed", "must be nonnegative")
    if merged["ball_cap"] is not None and merged["ball_cap"] < 1:
        raise ConfigError(f"{path}.ball_cap", "must be null or at least 1")
    if merged["t_count"] < 1:
        raise ConfigError(f"{path}.t_count", "must be at least 1")
    if merged["probes"] < 1:
        raise ConfigError(f"{path}.probes", "must be at least 1")
    space = merged["space"]
    unknown = set(space) - {"kind", "n"}
    if unknown:
        raise ConfigError(f"{path}.space.{sorted(unknown)[0]}", "unknown field")
    if space.get("kind") not in SPACE_KINDS:
        raise ConfigError(f"{path}.space.kind", f"must be one of {SPACE_KINDS}")
    if space.get("kind") != "pair":
        n = space.get("n")
        if not isinstance(n, int) or isinstance(n, bool) or n < 2:
            raise ConfigError(f"{path}.space.n", "must be an integer >= 2")
        points = n * n if space["kind"] == "grid2d" else n
        if points > MAX_POINTS:
            raise ConfigError(f"{path}.space.n", f"{points} points exceed the cap {MAX_POINTS}")
    for role, params in (
        ("lambda1", _WEIGHT_PARAMS),
        ("lambda2", _WEIGHT_PARAMS),
        ("symbol", _SYMBOL_PARAMS),
        ("function", _FUNCTION_PARAMS),
    ):
        _check_generator(merged[role], params, f"{path}.{role}")
    if not merged["checks"]:
        raise ConfigError(f"{path}.checks", "must name at least one check")
    if "jn" in merged["checks"] and not merged["r_values"]:
        raise ConfigError(f"{path}.r_values", "must hold at least one r when the jn check runs")
    p_conj = float(merged["p"]) / (float(merged["p"]) - 1.0)
    for i, r in enumerate(merged["r_values"]):
        if not _finite_number(r) or r < 1:
            raise ConfigError(f"{path}.r_values[{i}]", "must be a finite number >= 1")
        if "jn" in merged["checks"] and r > p_conj + JN_EPS + 1e-12:
            raise ConfigError(
                f"{path}.r_values[{i}]",
                f"exceeds p' + {JN_EPS} = {p_conj + JN_EPS} for p = {merged['p']}",
            )
    for i, c in enumerate(merged["checks"]):
        if c not in CHECK_NAMES:
            raise ConfigError(f"{path}.checks[{i}]", f"must be one of {CHECK_NAMES}")
    for key, val in merged["tolerances"].items():
        if key not in TOLERANCE_NAMES:
            raise ConfigError(f"{path}.tolerances.{key}", f"must be one of {TOLERANCE_NAMES}")
        if not _finite_number(val) or val <= 0:
            raise ConfigError(f"{path}.tolerances.{key}", "must be a finite positive number")
    return ScenarioConfig(**merged)


def parse_config(doc: object) -> List[ScenarioConfig]:
    """Parse a config document (one scenario, or {"scenarios": [...]})."""
    if isinstance(doc, dict) and "scenarios" in doc:
        extra = set(doc) - {"scenarios"}
        if extra:
            raise ConfigError(sorted(extra)[0], "unknown field")
        if not isinstance(doc["scenarios"], list) or not doc["scenarios"]:
            raise ConfigError("scenarios", "must be a non-empty array")
        out = [
            _parse_scenario(sc, f"scenarios[{i}]")
            for i, sc in enumerate(doc["scenarios"])
        ]
    else:
        out = [_parse_scenario(doc, "scenario")]
    seen = set()
    for i, sc in enumerate(out):
        if sc.scenario in seen:
            raise ConfigError(f"scenarios[{i}].scenario", "duplicate scenario id")
        seen.add(sc.scenario)
    return out


def config_to_dict(scenarios: Sequence[ScenarioConfig]) -> Dict[str, object]:
    return {"scenarios": [sc.to_dict() for sc in scenarios]}


def load_config(path: str) -> List[ScenarioConfig]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(json.load(fh))


def save_config(scenarios: Sequence[ScenarioConfig], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(scenarios), fh, sort_keys=True, indent=1)
        fh.write("\n")


# -- generators -----------------------------------------------------------------


def _rng(sc: ScenarioConfig, role: str) -> np.random.Generator:
    return np.random.default_rng([sc.seed, _ROLE_STREAMS[role]])


def make_space(sc: ScenarioConfig) -> QuasiMetricSpace:
    kind = sc.space["kind"]
    n = sc.space.get("n")
    return build_space(kind, n, seed=sc.seed)


def make_weight(space: QuasiMetricSpace, sc: ScenarioConfig, role: str) -> np.ndarray:
    spec = getattr(sc, role)
    kind = spec["kind"]
    if kind == "ones":
        return np.ones(space.n)
    if kind == "lognormal":
        rng = _rng(sc, role)
        return rng.lognormal(float(spec.get("mu", 0.0)), float(spec.get("sigma", 0.5)), space.n)
    if kind == "power":
        a = float(spec.get("a", 0.5))
        return (space.dist[0] + 1.0 / space.n) ** a
    raise ConfigError(f"{role}.kind", f"unknown weight kind {kind!r}")


def make_symbol(space: QuasiMetricSpace, sc: ScenarioConfig) -> np.ndarray:
    spec = sc.symbol
    kind = spec["kind"]
    if kind == "constant":
        return np.full(space.n, float(spec.get("value", 1.0)))
    if kind == "abs_lognormal":
        return _rng(sc, "symbol").lognormal(0.0, float(spec.get("sigma", 1.0)), space.n)
    if kind == "log_coord":
        return np.log1p(space.dist[0] * space.n)
    if kind == "abs_wave":
        freq = float(spec.get("freq", 0.7))
        return np.abs(np.sin(freq * space.n * space.dist[0]))
    raise ConfigError("symbol.kind", f"unknown symbol kind {kind!r}")


def make_function(space: QuasiMetricSpace, sc: ScenarioConfig) -> np.ndarray:
    spec = sc.function
    kind = spec["kind"]
    if kind == "ones":
        return np.ones(space.n)
    if kind == "lognormal":
        return _rng(sc, "function").lognormal(0.0, float(spec.get("sigma", 1.0)), space.n)
    if kind == "signed_lognormal":
        rng = _rng(sc, "function")
        vals = rng.lognormal(0.0, float(spec.get("sigma", 1.0)), space.n)
        return vals * (rng.integers(0, 2, size=space.n) * 2 - 1)
    if kind == "point":
        idx = int(spec.get("index", 0)) % space.n
        out = np.zeros(space.n)
        out[idx] = 1.0
        return out
    if kind == "ball":
        center = int(spec.get("center", 0)) % space.n
        radius = float(spec.get("radius", 0.25))
        out = np.zeros(space.n)
        out[space.canonical_ball(int(space.ball_ids(center, radius))).members] = 1.0
        return out
    raise ConfigError("function.kind", f"unknown function kind {kind!r}")


# -- default suite ----------------------------------------------------------------


def default_suite(seed: int = 42) -> Dict[str, object]:
    """The stock scenario battery: small spaces covering every check."""
    scenarios = [
        {
            "scenario": "pair-smoke",
            "space": {"kind": "pair"},
            "seed": seed,
            "p": 2.0,
            "symbol": {"kind": "log_coord"},
            "function": {"kind": "ones"},
            "checks": ["system", "upper", "lower", "jn", "identities"],
        },
        {
            "scenario": "line16-core",
            "space": {"kind": "line", "n": 16},
            "seed": seed + 1,
            "p": 2.0,
            "lambda1": {"kind": "lognormal", "sigma": 0.4},
            "lambda2": {"kind": "lognormal", "sigma": 0.4},
            "symbol": {"kind": "abs_wave"},
            "function": {"kind": "lognormal"},
        },
        {
            "scenario": "line32-two-weight",
            "space": {"kind": "line", "n": 32},
            "seed": seed + 2,
            "p": 1.5,
            "lambda1": {"kind": "power", "a": 0.3},
            "lambda2": {"kind": "lognormal", "sigma": 0.3},
            "symbol": {"kind": "log_coord"},
            "function": {"kind": "lognormal"},
            "checks": ["domination", "oscillation", "upper", "lower", "jn", "identities"],
        },
        {
            "scenario": "sqline16-quasi",
            "space": {"kind": "sqline", "n": 16},
            "seed": seed + 3,
            "p": 3.0,
            "symbol": {"kind": "abs_lognormal", "sigma": 0.6},
            "function": {"kind": "signed_lognormal"},
            "checks": ["system", "domination", "upper", "identities"],
        },
        {
            "scenario": "tree15-branching",
            "space": {"kind": "tree", "n": 15},
            "seed": seed + 4,
            "p": 2.0,
            "lambda1": {"kind": "lognormal", "sigma": 0.5},
            "lambda2": {"kind": "ones"},
            "symbol": {"kind": "abs_lognormal", "sigma": 0.8},
            "function": {"kind": "lognormal"},
            "checks": ["system", "oscillation", "upper", "lower", "jn", "identities"],
        },
        {
            "scenario": "grid4-euclidean",
            "space": {"kind": "grid2d", "n": 4},
            "seed": seed + 5,
            "p": 2.0,
            "symbol": {"kind": "abs_wave", "freq": 1.3},
            "function": {"kind": "lognormal"},
            "checks": ["system", "upper", "identities"],
        },
        {
            "scenario": "line64-exponent",
            "space": {"kind": "line", "n": 64},
            "seed": seed + 6,
            "p": 2.0,
            "symbol": {"kind": "log_coord"},
            "function": {"kind": "lognormal"},
            "ball_cap": 48,
            "checks": ["exponent"],
        },
    ]
    return {"scenarios": scenarios}
