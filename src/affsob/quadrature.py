"""Deterministic quadrature for boxes, spheres, and singular radial integrals."""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field as dataclass_field
from typing import Callable

import numpy as np

from .fields import AnalyticField, NumericalFailureError

__all__ = [
    "BoxQuadrature",
    "SphereQuadrature",
    "RadialQuadrature",
    "RadialSpec",
    "QuadratureBundle",
    "integrate_box",
    "build_sphere_quadrature",
    "directional_box",
    "gauss_legendre_nodes",
    "radial_from_samples",
    "pushforward_weight",
    "BOX_HALF_WIDTH",
    "T_MIN",
    "T_MAX",
]

# nodes per unit of (half_width * sqrt(curvature)); calibrated so the
# default cube (L=8, unit Gaussian) gets the spec defaults below
_DENSITY = {1: 24.0, 2: 12.0, 3: 6.0}
_DEFAULT_NODES = {1: 192, 2: 96, 3: 48}
# half width of the default cube; every box is fitted relative to it
BOX_HALF_WIDTH = 8.0
# the radial rule's full range; a RadialSpec sets its panel count
T_MIN = 1e-4
T_MAX = 1e3
_MAX_NODES_PER_AXIS = 640
# Gauss-Legendre nodes per log-spaced panel of the radial rule
_PANEL_ORDER = 8


def _check_count(name: str, value, least: int) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
            or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


@functools.lru_cache(maxsize=None)
def _leggauss(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], cached by node count.

    The arrays are shared between callers and therefore read-only.
    """
    x, w = np.polynomial.legendre.leggauss(count)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


class BoxQuadrature:
    """Tensor Gauss-Legendre rule on an axis-aligned or rotated box.

    `frame` columns are the box axes; nodes are frame @ (tensor grid).
    For an orthogonal frame the weights are the plain tensor weights.
    """

    def __init__(self, half_widths: np.ndarray, nodes_per_axis: tuple[int, ...],
                 frame: np.ndarray | None = None):
        half_widths = np.atleast_1d(np.asarray(half_widths, dtype=float))
        n = half_widths.shape[0]
        if frame is None:
            frame = np.eye(n)
        frame = np.asarray(frame, dtype=float)
        one_d = []
        for L, m in zip(half_widths, nodes_per_axis):
            x, w = _leggauss(int(m))
            one_d.append((x * L, w * L))
        weights = np.ones(1)
        for _, w in one_d:
            weights = np.multiply.outer(weights, w)
        # the meshgrid views are stacked straight into the P x N grid, so
        # the grid and the rotated nodes are the only P x N arrays; the
        # nodes are allocated first, which on repeated 3-D default boxes
        # keeps the process's peak RSS 1 MB below the other order.  A box
        # of no axes is the single empty node of weight 1.
        nodes = np.empty((weights.size, n))
        pts = (np.stack(np.meshgrid(*[g[0] for g in one_d], indexing="ij",
                                    copy=False), axis=-1).reshape(-1, n)
               if n else np.zeros((1, 0)))
        self.half_widths = half_widths
        self.nodes_per_axis = tuple(int(m) for m in nodes_per_axis)
        self.frame = frame
        self.nodes = np.matmul(pts, frame.T, out=nodes)
        self.weights = weights.ravel()

    @classmethod
    def fitted(cls, field: AnalyticField, base_nodes: int) -> "BoxQuadrature":
        """Box aligned with the field's spread, sized so the declared decay
        at the faces is at the same level as for the default cube."""
        half_widths, nodes, frame = fitted_axes(field, base_nodes)
        return cls(half_widths, nodes, frame=frame)


def fitted_axes(field: AnalyticField, base_nodes: int
                ) -> tuple[np.ndarray, tuple[int, ...], np.ndarray]:
    """Half widths, node counts and frame of BoxQuadrature.fitted, without
    its nodes: the counts tell the box's size before it is allocated."""
    n = field.dimension
    m0 = int(base_nodes)
    env = field.covariance_envelope
    eigval, eigvec = np.linalg.eigh(env)
    eigval = np.clip(eigval, 1e-8, None)
    pad = 1.0 + 0.06 * field.max_poly_degree()
    half_widths = np.minimum(BOX_HALF_WIDTH * np.sqrt(eigval) * pad,
                             4.0 * BOX_HALF_WIDTH)
    density = _DENSITY[n] * m0 / _DEFAULT_NODES[n]
    nodes = _axis_nodes(field, eigvec, half_widths, density,
                        max(m0 // 2, 8))
    return half_widths, nodes, eigvec


def _axis_nodes(field: AnalyticField, frame: np.ndarray,
                half_widths: np.ndarray, density: float,
                floor: int) -> tuple[int, ...]:
    """Gauss-Legendre nodes along each frame axis: `density` per unit of
    half width times the square root of the field's largest curvature
    along the axis, at least `floor` and at most _MAX_NODES_PER_AXIS."""
    nodes = []
    for axis, width in zip(frame.T, half_widths):
        curv = max((float(axis @ t.precision @ axis) for t in field.terms),
                   default=1.0)
        nodes.append(_node_count(density, width, curv, floor))
    return tuple(nodes)


def _node_count(density: float, width: float, curvature: float,
                floor: int) -> int:
    """`density` nodes per unit of width times sqrt(curvature), at least
    `floor` and at most _MAX_NODES_PER_AXIS."""
    m = int(math.ceil(density * width * math.sqrt(max(curvature, 1e-8))))
    return min(max(m, floor), _MAX_NODES_PER_AXIS)


# at this multiple of the field's support width, adjacent difference lobes
# overlap below the box-fitting decay floor and the L^p mass has saturated
_SEPARATION_FACTOR = 1.6


def _frame_through(xi: np.ndarray) -> np.ndarray:
    """Orthonormal frame whose first column is xi (Householder completion)."""
    n = xi.shape[0]
    v = xi.copy()
    v[0] -= 1.0
    nv = float(v @ v)
    if nv < 1e-24:
        return np.eye(n)
    return np.eye(n) - 2.0 * np.outer(v, v) / nv


def _support_widths(field: AnalyticField, frame: np.ndarray) -> np.ndarray:
    """Half widths of the field's effective support along the frame axes:
    the support function of its spread ellipsoid, padded for polynomials."""
    env = field.covariance_envelope
    pad = 1.0 + 0.06 * field.max_poly_degree()
    spread = np.sqrt(np.clip(np.einsum("ij,jk,ik->i", frame.T, env, frame.T), 1e-8, None))
    return np.minimum(BOX_HALF_WIDTH * pad * spread, 4.0 * BOX_HALF_WIDTH)


def directional_box(field: AnalyticField, xi: np.ndarray, order: int,
                    node_scale: float = 1.0) -> tuple[BoxQuadrature, float]:
    """Box aligned with a sweep direction, elongated for centered differences.

    Returns (box, t_sep).  For steps t <= t_sep every lobe of the centered
    order-th difference stays inside the box; beyond t_sep the lobes are
    separated beyond the field's effective support and the difference's
    L^p mass equals its separated-lobes limit up to the fitting decay floor.

    Widths come from the field's covariance envelope (support function of the
    spread ellipsoid), so for a radial field the boxes at two directions are
    exact rotations of each other and the profile inherits the symmetry.
    """
    frame = _frame_through(np.asarray(xi, dtype=float))
    n = frame.shape[0]
    widths = _support_widths(field, frame)
    t_sep = _SEPARATION_FACTOR * widths[0]
    widths[0] += 0.5 * order * t_sep
    nodes = _axis_nodes(field, frame, widths, _DENSITY[n] * node_scale, 24)
    return BoxQuadrature(widths, nodes, frame=frame), t_sep


def whitened_rules(dimension: int, degree: int, order: int,
                   node_scale: float = 1.0
                   ) -> tuple[np.ndarray, np.ndarray, BoxQuadrature, float]:
    """directional_box of a unit-precision term of polynomial degree
    `degree` centred at 0, axis by axis: the Gauss-Legendre nodes and
    weights along the direction, the tensor rule across it (N - 1 axes)
    and t_sep.  Every curvature is 1, so the node counts are those of
    directional_box at the same widths: half width BOX_HALF_WIDTH times the
    degree pad, lengthened along the direction by order * t_sep / 2."""
    half = BOX_HALF_WIDTH * (1.0 + 0.06 * degree)
    t_sep = _SEPARATION_FACTOR * half
    along = half + 0.5 * order * t_sep
    density = _DENSITY[dimension] * node_scale
    u, w = gauss_legendre_nodes(along, _node_count(density, along, 1.0, 24))
    count = _node_count(density, half, 1.0, 24)
    cross = BoxQuadrature(np.full(dimension - 1, half),
                          (count,) * (dimension - 1))
    return u, w, cross, t_sep


def gauss_legendre_nodes(half_width: float, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-half_width, half_width]."""
    x, w = _leggauss(int(count))
    return x * half_width, w * half_width


def integrate_box(g: Callable[[np.ndarray], np.ndarray] | np.ndarray,
                  box: BoxQuadrature) -> float:
    vals = g(box.nodes) if callable(g) else np.asarray(g, dtype=float)
    if vals.shape != box.weights.shape:
        raise ValueError("integrand values do not match quadrature size")
    if not np.all(np.isfinite(vals)):
        raise NumericalFailureError("non-finite integrand values on the box")
    return float(vals @ box.weights)


class SphereQuadrature:
    """Quadrature nodes and weights on the unit sphere S^{N-1}.

    N=1: the pair {+1, -1}, each of weight 1.
    N=2: equispaced angles with uniform weights (trapezoid, spectrally
    accurate for periodic integrands). N=3: Gauss-Legendre in cos(theta)
    times equispaced azimuth. `antipode` maps each node index to the index
    of its negation; `build_sphere_quadrature` supplies it by construction.
    """

    def __init__(self, nodes: np.ndarray, weights: np.ndarray,
                 antipode: np.ndarray):
        self.nodes = nodes
        self.weights = weights
        self.antipode = antipode

    @property
    def area(self) -> float:
        return float(self.weights.sum())

    def integrate(self, values: np.ndarray) -> float:
        return float(np.asarray(values, dtype=float) @ self.weights)


def build_sphere_quadrature(dimension: int, resolution: int) -> SphereQuadrature:
    """Sphere rule on S^{N-1}: the two points +1 and -1 of unit weight
    (N=1, whatever the resolution), ~resolution nodes (N=2) or resolution
    polar bands (N=3)."""
    if resolution < 4:
        raise ValueError("sphere resolution must be at least 4")
    if dimension == 1:
        return SphereQuadrature(np.array([[1.0], [-1.0]]), np.ones(2),
                                np.array([1, 0]))
    if dimension == 2:
        n = int(resolution)
        if n % 2:
            n += 1  # keep the node set antipodally symmetric
        theta = 2.0 * np.pi * np.arange(n) / n
        nodes = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        weights = np.full(n, 2.0 * np.pi / n)
        # theta + pi is n/2 steps further round the circle
        antipode = (np.arange(n) + n // 2) % n
        return SphereQuadrature(nodes, weights, antipode)
    if dimension == 3:
        n_u = int(resolution)
        n_phi = 2 * n_u
        u, wu = _leggauss(n_u)
        phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
        su = np.sqrt(np.clip(1.0 - u ** 2, 0.0, None))
        nodes = np.empty((n_u * n_phi, 3))
        weights = np.empty(n_u * n_phi)
        k = 0
        for i in range(n_u):
            nodes[k:k + n_phi, 0] = su[i] * np.cos(phi)
            nodes[k:k + n_phi, 1] = su[i] * np.sin(phi)
            nodes[k:k + n_phi, 2] = u[i]
            weights[k:k + n_phi] = wu[i] * 2.0 * np.pi / n_phi
            k += n_phi
        # negating a node flips u (Gauss-Legendre nodes are symmetric, so
        # band n_u - 1 - i) and turns its azimuth by pi (n_phi / 2 steps)
        band = np.arange(n_u)[:, None]
        step = np.arange(n_phi)[None, :]
        antipode = ((n_u - 1 - band) * n_phi + (step + n_phi // 2) % n_phi).ravel()
        return SphereQuadrature(nodes, weights, antipode)
    raise ValueError("only dimensions 1, 2 and 3 are supported")


@dataclass(frozen=True)
class RadialSpec:
    """Panel count of the singular radial rule over [T_MIN, T_MAX], set
    before a field is known."""

    panels: int = 40

    def __post_init__(self):
        _check_count("panels", self.panels, 1)


class RadialQuadrature:
    """Composite Gauss-Legendre panels, log-spaced on [t_min, t_max]."""

    def __init__(self, t_min: float, t_max: float, panels: int):
        if not (0 < t_min < t_max):
            raise ValueError("need 0 < t_min < t_max")
        edges = np.exp(np.linspace(math.log(t_min), math.log(t_max), panels + 1))
        x, w = _leggauss(_PANEL_ORDER)
        a, b = edges[:-1, None], edges[1:, None]
        self.t_min = float(t_min)
        self.t_max = float(t_max)
        self.nodes = (0.5 * (b - a) * x + 0.5 * (a + b)).ravel()
        self.weights = (0.5 * (b - a) * w).ravel()

    @classmethod
    def for_range(cls, spec: RadialSpec, t_max: float) -> "RadialQuadrature":
        """Panels over [T_MIN, t_max] at the spec's per-decade density."""
        t_max = max(t_max, T_MIN * 10.0)
        ratio = math.log(t_max / T_MIN) / math.log(T_MAX / T_MIN)
        panels = max(8, int(math.ceil(spec.panels * ratio)))
        return cls(T_MIN, t_max, panels)


def radial_from_samples(samples: np.ndarray, s: float, p: float, order: int,
                        rq: RadialQuadrature,
                        far_constant: float) -> tuple[float, float]:
    """Assemble the singular integral from g sampled at the rule's nodes.

    Returns (value, tail_interval_width). Body is the weighted panel sum of
    t^{-sp-1} g(t); below t_min the model g ~ c t^{mp} fitted at the first
    node closes the integral.  Above t_max the exact separated-lobes limit
    far_constant replaces g: the rule's range must reach the separation
    scale.  The interval covers those two models only, not the panel error
    of the body or the box error of g, 1e4 to 1e10 times larger at coarse
    tiers.
    """
    sp = s * p
    head_exp = (order - s) * p
    if head_exp <= 0:
        raise ValueError("difference order must exceed s for the head model")
    samples = np.asarray(samples, dtype=float)
    if not np.all(np.isfinite(samples)):
        raise NumericalFailureError("non-finite radial samples")
    if np.all(samples == 0.0) and not far_constant:
        return 0.0, 0.0
    body = float((rq.weights * rq.nodes ** (-sp - 1.0) * samples).sum())
    c_head = samples[0] / rq.nodes[0] ** (order * p)
    head = c_head * rq.t_min ** head_exp / head_exp
    far = far_constant * rq.t_max ** (-sp) / sp
    return body + head + far, far * 1e-9 + 0.5 * head


def pushforward_weight(matrix: np.ndarray, omega: np.ndarray) -> float:
    """Jacobian factor |det T| / |T omega|^N for the sphere map T x / |T x|."""
    matrix = np.asarray(matrix, dtype=float)
    omega = np.asarray(omega, dtype=float)
    n = matrix.shape[0]
    img = matrix @ omega
    norm = np.linalg.norm(img)
    if norm < 1e-300:
        raise ValueError("direction is annihilated by the matrix")
    return float(abs(np.linalg.det(matrix)) / norm ** n)


@dataclass
class QuadratureBundle:
    """Box + sphere + radial settings used by one energy computation.

    The base box node count is kept so the box can be refitted when a
    computation composes the field with a transformation.
    """

    dimension: int
    sphere_resolution: int
    box_nodes: int
    radial_spec: RadialSpec = dataclass_field(default_factory=RadialSpec)

    def __post_init__(self):
        _check_count("box_nodes", self.box_nodes, 1)
        _check_count("sphere_resolution", self.sphere_resolution, 4)
        self.sphere = build_sphere_quadrature(self.dimension, self.sphere_resolution)

    @classmethod
    def default(cls, dimension: int, box_nodes: int | None = None,
                sphere_resolution: int | None = None,
                radial_spec: RadialSpec | None = None) -> "QuadratureBundle":
        return cls(
            dimension,
            (64 if dimension == 2 else 24) if sphere_resolution is None
            else sphere_resolution,
            _DEFAULT_NODES[dimension] if box_nodes is None else box_nodes,
            RadialSpec() if radial_spec is None else radial_spec,
        )

    def box_for(self, field: AnalyticField) -> BoxQuadrature:
        return BoxQuadrature.fitted(field, base_nodes=self.box_nodes)

    def radial_range(self, t_max: float) -> RadialQuadrature:
        return RadialQuadrature.for_range(self.radial_spec, t_max)

    def directional_box_for(self, field: AnalyticField, xi: np.ndarray,
                            order: int) -> tuple[BoxQuadrature, float]:
        scale = self.box_nodes / _DEFAULT_NODES[self.dimension]
        return directional_box(field, xi, order, node_scale=scale)

    def whitened_rules_for(self, degree: int, order: int
                           ) -> tuple[np.ndarray, np.ndarray, BoxQuadrature,
                                      float]:
        scale = self.box_nodes / _DEFAULT_NODES[self.dimension]
        return whitened_rules(self.dimension, degree, order, node_scale=scale)

    def scaled(self, factor: float) -> "QuadratureBundle":
        return QuadratureBundle(
            self.dimension,
            max(4, int(round(self.sphere_resolution * factor))),
            max(8, int(round(self.box_nodes * factor))),
            RadialSpec(max(4, int(round(self.radial_spec.panels * factor)))),
        )
