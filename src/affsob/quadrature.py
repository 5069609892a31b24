"""Deterministic quadrature for boxes, spheres, and singular radial integrals."""
from __future__ import annotations

import functools
import math
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
]

# nodes per unit of (half_width * sqrt(curvature)); calibrated so the
# default cube (L=8, unit Gaussian) gets the spec defaults below
_DENSITY = {2: 12.0, 3: 6.0}
_DEFAULT_NODES = {1: 192, 2: 96, 3: 48}
_DEFAULT_HALF_WIDTH = 8.0
_MAX_NODES_PER_AXIS = 640


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
        grids = np.meshgrid(*[g[0] for g in one_d], indexing="ij")
        weights = np.ones(1)
        for _, w in one_d:
            weights = np.multiply.outer(weights, w)
        pts = np.stack([g.ravel() for g in grids], axis=1)
        self.half_widths = half_widths
        self.nodes_per_axis = tuple(int(m) for m in nodes_per_axis)
        self.frame = frame
        self.nodes = pts @ frame.T
        self.weights = weights.ravel()

    @property
    def dimension(self) -> int:
        return self.half_widths.shape[0]

    @classmethod
    def cube(cls, dimension: int, half_width: float | None = None,
             nodes_per_axis: int | None = None) -> "BoxQuadrature":
        L = _DEFAULT_HALF_WIDTH if half_width is None else float(half_width)
        m = _DEFAULT_NODES[dimension] if nodes_per_axis is None else int(nodes_per_axis)
        return cls(np.full(dimension, L), (m,) * dimension)

    @classmethod
    def fitted(cls, field: AnalyticField, base_half_width: float | None = None,
               base_nodes: int | None = None) -> "BoxQuadrature":
        """Box aligned with the field's spread, sized so the declared decay
        at the faces is at the same level as for the default cube."""
        n = field.dimension
        L0 = _DEFAULT_HALF_WIDTH if base_half_width is None else float(base_half_width)
        m0 = _DEFAULT_NODES[n] if base_nodes is None else int(base_nodes)
        env = field.covariance_envelope()
        eigval, eigvec = np.linalg.eigh(env)
        eigval = np.clip(eigval, 1e-8, None)
        pad = 1.0 + 0.06 * field.max_poly_degree()
        half_widths = np.minimum(L0 * np.sqrt(eigval) * pad, 4.0 * L0)
        density = _DENSITY[n] * m0 / _DEFAULT_NODES[n]
        nodes = []
        for i in range(n):
            curv = max(float(eigvec[:, i] @ t.precision @ eigvec[:, i])
                       for t in field.terms) if field.terms else 1.0
            m = int(math.ceil(density * half_widths[i] * math.sqrt(max(curv, 1e-8))))
            nodes.append(min(max(m, m0 // 2, 8), _MAX_NODES_PER_AXIS))
        return cls(half_widths, tuple(nodes), frame=eigvec)


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


def _support_widths(field: AnalyticField, frame: np.ndarray,
                    base_half_width: float | None) -> np.ndarray:
    """Half widths of the field's effective support along the frame axes:
    the support function of its spread ellipsoid, padded for polynomials."""
    L0 = _DEFAULT_HALF_WIDTH if base_half_width is None else float(base_half_width)
    env = field.covariance_envelope()
    pad = 1.0 + 0.06 * field.max_poly_degree()
    spread = np.sqrt(np.clip(np.einsum("ij,jk,ik->i", frame.T, env, frame.T), 1e-8, None))
    return np.minimum(L0 * pad * spread, 4.0 * L0)


def directional_box(field: AnalyticField, xi: np.ndarray, order: int,
                    base_half_width: float | None = None,
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
    widths = _support_widths(field, frame, base_half_width)
    t_sep = _SEPARATION_FACTOR * widths[0]
    widths[0] += 0.5 * order * t_sep
    density = _DENSITY[n] * node_scale
    nodes = []
    for j in range(n):
        curv = max((float(frame[:, j] @ t.precision @ frame[:, j])
                    for t in field.terms), default=1.0)
        m = int(math.ceil(density * widths[j] * math.sqrt(max(curv, 1e-8))))
        nodes.append(min(max(m, 24), _MAX_NODES_PER_AXIS))
    return BoxQuadrature(widths, tuple(nodes), frame=frame), t_sep


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

    N=2: equispaced angles with uniform weights (trapezoid, spectrally
    accurate for periodic integrands). N=3: Gauss-Legendre in cos(theta)
    times equispaced azimuth. `antipode` maps each node index to the index
    of its negation; `build_sphere_quadrature` supplies it by construction,
    and a rule built from arbitrary nodes has None.
    """

    def __init__(self, nodes: np.ndarray, weights: np.ndarray,
                 antipode: np.ndarray | None = None):
        self.nodes = nodes
        self.weights = weights
        self.antipode = antipode

    @property
    def dimension(self) -> int:
        return self.nodes.shape[1]

    @property
    def area(self) -> float:
        return float(self.weights.sum())

    def integrate(self, values: np.ndarray) -> float:
        return float(np.asarray(values, dtype=float) @ self.weights)


def build_sphere_quadrature(dimension: int, resolution: int) -> SphereQuadrature:
    """Sphere rule with ~resolution nodes (N=2) or resolution polar bands (N=3)."""
    if resolution < 4:
        raise ValueError("sphere resolution must be at least 4")
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
    raise ValueError("only dimensions 2 and 3 are supported")


@dataclass(frozen=True)
class RadialSpec:
    """Parameters for the singular radial rule before a field is known."""

    t_min: float = 1e-4
    t_max: float = 1e3
    panels: int = 40
    panel_order: int = 8


class RadialQuadrature:
    """Composite Gauss-Legendre panels, log-spaced on [t_min, t_max]."""

    def __init__(self, t_min: float, t_max: float, panels: int, panel_order: int = 8):
        if not (0 < t_min < t_max):
            raise ValueError("need 0 < t_min < t_max")
        edges = np.exp(np.linspace(math.log(t_min), math.log(t_max), panels + 1))
        x, w = _leggauss(int(panel_order))
        nodes = []
        weights = []
        for a, b in zip(edges[:-1], edges[1:]):
            nodes.append(0.5 * (b - a) * x + 0.5 * (a + b))
            weights.append(0.5 * (b - a) * w)
        self.t_min = float(t_min)
        self.t_max = float(t_max)
        self.panels = int(panels)
        self.panel_order = int(panel_order)
        self.nodes = np.concatenate(nodes)
        self.weights = np.concatenate(weights)

    @classmethod
    def for_range(cls, spec: RadialSpec, t_max: float) -> "RadialQuadrature":
        """Panels over [t_min, t_max] at the spec's per-decade density."""
        t_max = max(t_max, spec.t_min * 10.0)
        ratio = math.log(t_max / spec.t_min) / math.log(spec.t_max / spec.t_min)
        panels = max(8, int(math.ceil(spec.panels * ratio)))
        return cls(spec.t_min, t_max, panels, spec.panel_order)


def radial_from_samples(samples: np.ndarray, s: float, p: float, order: int,
                        rq: RadialQuadrature,
                        far_constant: float) -> tuple[float, float]:
    """Assemble the singular integral from g sampled at the rule's nodes.

    Returns (value, tail_interval_width). Body is the weighted panel sum of
    t^{-sp-1} g(t); below t_min the model g ~ c t^{mp} fitted at the first
    node closes the integral.  Above t_max the exact separated-lobes limit
    far_constant replaces g: the rule's range must reach the separation
    scale, so the residual interval is the lobe-interaction floor.
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

    The base box settings are kept so the box can be refitted when a
    computation composes the field with a transformation.
    """

    dimension: int
    sphere_resolution: int
    box_nodes: int
    box_half_width: float
    radial_spec: RadialSpec = dataclass_field(default_factory=RadialSpec)

    def __post_init__(self):
        self.sphere = build_sphere_quadrature(self.dimension, self.sphere_resolution)
        self._default_box = BoxQuadrature.cube(
            self.dimension, half_width=self.box_half_width,
            nodes_per_axis=self.box_nodes)

    @classmethod
    def default(cls, dimension: int, box_nodes: int | None = None,
                sphere_resolution: int | None = None,
                box_half_width: float | None = None,
                radial_spec: RadialSpec | None = None) -> "QuadratureBundle":
        return cls(
            dimension,
            sphere_resolution or (64 if dimension == 2 else 24),
            box_nodes or _DEFAULT_NODES[dimension],
            box_half_width or _DEFAULT_HALF_WIDTH,
            radial_spec or RadialSpec(),
        )

    def box_for(self, field: AnalyticField | None = None) -> BoxQuadrature:
        if field is None:
            return self._default_box
        return BoxQuadrature.fitted(field, base_half_width=self.box_half_width,
                                    base_nodes=self.box_nodes)

    def radial_range(self, t_max: float) -> RadialQuadrature:
        return RadialQuadrature.for_range(self.radial_spec, t_max)

    def directional_box_for(self, field: AnalyticField, xi: np.ndarray,
                            order: int) -> tuple[BoxQuadrature, float]:
        scale = self.box_nodes / _DEFAULT_NODES[self.dimension]
        return directional_box(field, xi, order,
                               base_half_width=self.box_half_width,
                               node_scale=scale)

    def scaled(self, factor: float) -> "QuadratureBundle":
        spec = RadialSpec(self.radial_spec.t_min, self.radial_spec.t_max,
                          max(4, int(round(self.radial_spec.panels * factor))),
                          self.radial_spec.panel_order)
        return QuadratureBundle(
            self.dimension,
            max(4, int(round(self.sphere_resolution * factor))),
            max(8, int(round(self.box_nodes * factor))),
            self.box_half_width,
            spec,
        )

    def doubled(self) -> "QuadratureBundle":
        return self.scaled(2.0)
