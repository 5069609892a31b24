"""JSON run configuration for the command-line surface.

Top-level keys: dimension, s, p, field, quadrature, optimizer.  The field
is either a family member name or an inline term list; quadrature accepts
partial overrides of the defaults, and optimizer sets max_iters.
Everything wrong with a configuration raises ConfigError, which the CLI
maps to exit code 2.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path

from .family import family_member, field_from_spec, load_family_spec
from .fields import SmoothnessParams
from .quadrature import (_MAX_NODES_PER_AXIS, QuadratureBundle, RadialSpec,
                         fitted_axes)
from .sl_opt import OptimizerOptions


class ConfigError(ValueError):
    pass


_QUAD_KEYS = {"box_nodes", "sphere_nodes", "t_panels"}
# nodes of the largest fitted box a config may ask for: 4.5 times the
# 885k of the doubled 3-D tier, whose s = 2, p = 2 energy peaks at about
# 225 MB; 3-D box_nodes of about 159 reach it, and 640 nodes per axis
# would make 262M
_MAX_BOX_NODES = 4_000_000
_OPT_KEYS = {f.name for f in dataclass_fields(OptimizerOptions)}
_TOP_KEYS = {"dimension", "s", "p", "field", "quadrature", "optimizer"}


@dataclass
class RunConfig:
    dimension: int
    params: SmoothnessParams
    field_name: str
    field: object
    quadrature: QuadratureBundle
    optimizer: OptimizerOptions


def _build_quadrature(dimension: int, raw: dict | None) -> QuadratureBundle:
    raw = dict(raw or {})
    unknown = set(raw) - _QUAD_KEYS
    if unknown:
        raise ConfigError(f"unknown quadrature keys: {sorted(unknown)}")
    try:
        spec = RadialSpec(panels=raw.get("t_panels", RadialSpec().panels))
        return QuadratureBundle.default(
            dimension,
            box_nodes=raw.get("box_nodes"),
            sphere_resolution=raw.get("sphere_nodes"),
            radial_spec=spec)
    except ValueError as exc:
        raise ConfigError(f"bad quadrature: {exc}") from exc


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
        try:
            member = family_member(spec)
        except KeyError:
            names = sorted(load_family_spec()["members"])
            raise ConfigError(
                f"unknown field {spec!r}; family members are {names}") from None
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


def _check_box_size(field, quadrature: QuadratureBundle) -> None:
    """Refuse a box_nodes whose fitted box for the field would exceed
    _MAX_BOX_NODES, before any node is allocated.  An axis holds at most
    _MAX_NODES_PER_AXIS nodes, so no 2-D box can, and a 2-D config pays
    nothing for the check."""
    if _MAX_NODES_PER_AXIS ** field.dimension <= _MAX_BOX_NODES:
        return
    counts = fitted_axes(field, quadrature.box_nodes)[1]
    if math.prod(counts) > _MAX_BOX_NODES:
        raise ConfigError(
            f"box_nodes {quadrature.box_nodes} fits a box of "
            f"{' x '.join(map(str, counts))} = {math.prod(counts)} nodes "
            f"to this field, over the limit of {_MAX_BOX_NODES}")


def config_from_dict(raw: dict) -> RunConfig:
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    try:
        dimension = int(raw.get("dimension", 2))
        s = float(raw.get("s", 1.0))
        p = float(raw.get("p", 2.0))
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
    _check_box_size(field, quadrature)
    optimizer = _build_optimizer(raw.get("optimizer"))
    return RunConfig(dimension, params, name, field, quadrature, optimizer)


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


__all__ = [
    "ConfigError", "RunConfig", "config_from_dict", "parse_config",
    "validate_subcritical", "validate_balance",
]
