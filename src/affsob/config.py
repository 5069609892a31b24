"""JSON run configuration for the command-line surface.

Top-level keys: dimension, s, p, field, quadrature, optimizer, seed.  The
field is either a family member name or an inline term list; quadrature and
optimizer accept partial overrides of the defaults.  Everything wrong with
a configuration raises ConfigError, which the CLI maps to exit code 2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .family import field_from_spec, standard_family
from .fields import SmoothnessParams
from .quadrature import QuadratureBundle, RadialSpec
from .sl_opt import OptimizerOptions


class ConfigError(ValueError):
    pass


_QUAD_KEYS = {"box_halfwidth", "box_nodes", "sphere_nodes",
              "t_min", "t_max", "t_panels"}
_OPT_KEYS = {"max_iters", "grad_tol", "initial_step", "backtrack",
             "armijo_c", "max_backtracks", "restarts"}
_TOP_KEYS = {"dimension", "s", "p", "field", "quadrature", "optimizer", "seed"}


@dataclass
class RunConfig:
    dimension: int
    params: SmoothnessParams
    field_name: str
    field: object
    quadrature: QuadratureBundle
    optimizer: OptimizerOptions
    seed: int


def _build_quadrature(dimension: int, raw: dict | None) -> QuadratureBundle:
    raw = dict(raw or {})
    unknown = set(raw) - _QUAD_KEYS
    if unknown:
        raise ConfigError(f"unknown quadrature keys: {sorted(unknown)}")
    spec = RadialSpec(
        t_min=float(raw.get("t_min", 1e-4)),
        t_max=float(raw.get("t_max", 1e3)),
        panels=int(raw.get("t_panels", 40)))
    return QuadratureBundle.default(
        dimension,
        box_nodes=raw.get("box_nodes"),
        sphere_resolution=raw.get("sphere_nodes"),
        box_half_width=raw.get("box_halfwidth"),
        radial_spec=spec)


def _build_optimizer(raw: dict | None) -> OptimizerOptions:
    raw = dict(raw or {})
    unknown = set(raw) - _OPT_KEYS
    if unknown:
        raise ConfigError(f"unknown optimizer keys: {sorted(unknown)}")
    try:
        return OptimizerOptions(**raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad optimizer options: {exc}") from exc


def _build_field(spec, dimension: int):
    if isinstance(spec, str):
        family = standard_family()
        if spec not in family:
            raise ConfigError(
                f"unknown field {spec!r}; family members are {sorted(family)}")
        member = family[spec]
        if member.dimension != dimension:
            raise ConfigError(
                f"field {spec!r} has dimension {member.dimension}, "
                f"config says {dimension}")
        return spec, member
    if isinstance(spec, dict) and "terms" in spec:
        try:
            return "inline", field_from_spec(spec, dimension)
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"bad inline field: {exc}") from exc
    raise ConfigError("field must be a family name or an inline term spec")


def config_from_dict(raw: dict) -> RunConfig:
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    try:
        dimension = int(raw.get("dimension", 2))
        s = float(raw.get("s", 1.0))
        p = float(raw.get("p", 2.0))
        seed = int(raw.get("seed", 0))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad scalar entry: {exc}") from exc
    if dimension not in (2, 3):
        raise ConfigError(f"dimension must be 2 or 3, got {dimension}")
    try:
        params = SmoothnessParams(s, p)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    name, field = _build_field(raw.get("field", "radial"), dimension)
    quadrature = _build_quadrature(dimension, raw.get("quadrature"))
    optimizer = _build_optimizer(raw.get("optimizer"))
    return RunConfig(dimension, params, name, field, quadrature, optimizer, seed)


def parse_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return config_from_dict(raw)


def validate_subcritical(s: float, p: float, dimension: int) -> None:
    """The critical-exponent embedding needs sp < N."""
    if s * p >= dimension:
        raise ConfigError(
            f"embedding requires s*p < N, got s*p = {s * p}, N = {dimension}")


def validate_balance(s1: float, p1: float, s2: float, p2: float,
                     dimension: int) -> None:
    """Energy-ordering pairs must share the scaling index s - N/p."""
    if abs((s2 - dimension / p2) - (s1 - dimension / p1)) > 1e-12:
        raise ConfigError(
            "energy ordering requires s2 - N/p2 = s1 - N/p1; got "
            f"{s2 - dimension / p2} vs {s1 - dimension / p1}")


def validate_not_excluded(s: float, p: float) -> None:
    """Integer order >= 2 with p = 1 is outside the two-sided estimates."""
    if p == 1.0 and abs(s - round(s)) <= 1e-12 and round(s) >= 2:
        raise ConfigError(
            f"s = {s}, p = 1 falls in the excluded integer regime")


__all__ = [
    "ConfigError", "RunConfig", "config_from_dict", "parse_config",
    "validate_subcritical", "validate_balance", "validate_not_excluded",
]
