"""The frozen field family used by the verification suites.

Members span the regimes the energy comparisons quantify over: radial,
anisotropic, sheared at three strengths, sign-changing (Hermite factor),
a two-bump mixture, and a narrow bump standing in for compact support
(its mass outside radius 4 is below 1e-13).  The parametrized extras are
the ridge profile whose first axis shrinks with R and the sampled radial
field on a three-dimensional grid.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .fields import AnalyticField, GaussianTerm, GridField, Polynomial

_DATA_PATH = Path(__file__).parent / "data" / "family.json"


def load_family_spec() -> dict:
    with open(_DATA_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def field_from_spec(spec: dict, dimension: int) -> AnalyticField:
    terms = []
    for term in spec["terms"]:
        poly = Polynomial(dimension, {
            tuple(int(e) for e in key.split(",")): float(c)
            for key, c in term["polynomial"].items()})
        terms.append(GaussianTerm(
            float(term["coefficient"]), poly,
            np.asarray(term["mean"], dtype=float),
            np.asarray(term["precision"], dtype=float)))
    return AnalyticField(dimension, terms)


def standard_family() -> dict[str, AnalyticField]:
    spec = load_family_spec()
    dim = int(spec["dimension"])
    return {name: field_from_spec(member, dim)
            for name, member in spec["members"].items()}


def family_member(name: str) -> AnalyticField:
    """The member `name` of standard_family(), built without the others;
    KeyError when there is no such member."""
    spec = load_family_spec()
    return field_from_spec(spec["members"][name], int(spec["dimension"]))


def ridge_member(scale: float) -> AnalyticField:
    """Product profile exp(-x1^2 / (2 (w1 R)^2)) exp(-x2^2 / (2 w2^2)):
    the first axis narrows with the scale R while the second stays put."""
    spec = load_family_spec()["ridge"]
    w1 = float(spec["axis_width"]) * scale
    w2 = float(spec["transverse_width"])
    return AnalyticField.gaussian(2, precision=np.diag([w1 ** -2, w2 ** -2]))


def strong_shear_members() -> list[tuple[float, AnalyticField]]:
    """Radial profile composed with strong x-shears; these members leave
    the first coordinate direction with a provably-too-small energy share."""
    spec = load_family_spec()["strong_shears"]
    rng = np.random.default_rng(int(spec["seed"]))
    sigmas = np.sort(rng.uniform(spec["sigma_low"], spec["sigma_high"],
                                 int(spec["count"])))
    out = []
    for sigma in sigmas:
        shear = np.array([[1.0, sigma], [0.0, 1.0]])
        out.append((float(sigma),
                    AnalyticField.gaussian(2).affine_compose(shear)))
    return out


def weak_grid_field(resolution: int | None = None) -> GridField:
    """Radial Gaussian sampled on a cube in three dimensions; boundary
    values are below 2e-8 so the sample is effectively supported inside."""
    spec = load_family_spec()["weak_grid"]
    res = int(spec["resolution"]) if resolution is None else resolution
    half = float(spec["half_width"])
    dim = int(spec["dimension"])
    axes = [np.linspace(-half, half, res) for _ in range(dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    radius_sq = sum(m ** 2 for m in mesh)
    values = np.exp(-0.5 * radius_sq)
    spacing = np.full(dim, 2.0 * half / (res - 1))
    return GridField(np.full(dim, -half), spacing, values)


__all__ = [
    "load_family_spec", "field_from_spec", "standard_family", "family_member",
    "ridge_member", "strong_shear_members",
    "weak_grid_field",
]
