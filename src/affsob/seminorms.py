"""Directional energies and homogeneous smoothness functionals.

Both branches of the semi-norm are driven by the same object: a profile of
directional energies D(f, xi) sampled on a sphere quadrature.  For
non-integer s the energy along xi is the weighted radial integral of
||difference of order m at step t*xi||_p^p with m = floor(s)+1; for integer
s it is the L^p integral of the s-th directional derivative.  The profile
is what the affine energies aggregate, so it is computed once and reused.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .autocorrelation import exact_directional_energies
from .fields import (
    _SWEEP_BLOCK,
    AnalyticField,
    GridField,
    NumericalFailureError,
    SmoothnessParams,
    directional_weight_matrix,
    multi_indices,
    partial_derivative_fields,
)
from .quadrature import (
    _SEPARATION_FACTOR,
    BoxQuadrature,
    QuadratureBundle,
    SphereQuadrature,
    build_sphere_quadrature,
    gauss_legendre_nodes,
    integrate_box,
    radial_from_samples,
)

# a direction is treated as energetically dead below this fraction of the peak
_FLAT_RATIO = 1e-12

_EXCLUDED_MESSAGE = (
    "derivative order >= 2 with p = 1 sits outside the two-sided comparison "
    "range; the energy is still computed"
)


@dataclass(frozen=True)
class DirectionalEnergyProfile:
    """Per-direction energies D(f, xi_j) on a sphere quadrature.

    values[j] is the p-th power energy along sphere.nodes[j].  On the swept
    difference branch tail_interval[j] bounds what the truncated radial
    integral may have dropped (head plus tail estimate).  At p = 2 the
    energies of an AnalyticField are closed forms with no radial rule, and
    tail_interval[j] bounds their rounding error instead.  The derivative
    branch has neither, so there it is identically zero.
    """

    params: SmoothnessParams
    sphere: SphereQuadrature
    values: np.ndarray
    tail_interval: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.sphere.nodes.shape[0],):
            raise ValueError("profile length must match sphere node count")
        if not np.all(np.isfinite(self.values)) or np.any(self.values < 0):
            raise NumericalFailureError(
                "directional energies must be finite and nonnegative")

    def integrate(self) -> float:
        return float(self.sphere.integrate(self.values))

    @property
    def min_value(self) -> float:
        return float(self.values.min())

    @property
    def max_value(self) -> float:
        return float(self.values.max())

    @property
    def degenerate(self) -> bool:
        """True when some node carries exactly zero energy."""
        return bool(np.any(self.values == 0.0))

    @property
    def flat_direction(self) -> bool:
        """True when some direction is dead relative to the strongest one."""
        top = self.max_value
        return bool(top == 0.0 or self.min_value < _FLAT_RATIO * top)

    def tail_budget(self) -> float:
        return float(self.sphere.integrate(self.tail_interval))


def lp_norm(field, p: float, box: BoxQuadrature) -> float:
    """(integral of |f|^p)^(1/p) over the quadrature box."""
    if p < 1:
        raise ValueError("p must be >= 1")
    total = integrate_box(lambda pts: np.abs(field.evaluate(pts)) ** p, box)
    return float(total) ** (1.0 / p)


def _integer_order(params: SmoothnessParams) -> int:
    s = int(round(params.s))
    if s < 1:
        raise ValueError("integer branch needs s >= 1")
    return s


def _warn_if_excluded(params: SmoothnessParams) -> None:
    if params.excluded:
        warnings.warn(_EXCLUDED_MESSAGE, RuntimeWarning, stacklevel=3)


def _partial_value_matrix(field: AnalyticField, order: int,
                          points: np.ndarray) -> tuple[list[tuple[int, ...]], np.ndarray]:
    alphas = multi_indices(field.dimension, order)
    derivs = partial_derivative_fields(field, order)
    vals = np.stack([derivs[a].evaluate(points) for a in alphas])
    return alphas, vals


def _grid_partial_arrays(field: GridField, order: int) -> tuple[list[tuple[int, ...]], np.ndarray]:
    alphas = multi_indices(field.dimension, order)
    if order == 1:
        arrays = field.gradient_arrays()
        stacked = np.stack([arrays[a.index(1)].ravel() for a in alphas])
    elif order == 2:
        upper = field.hessian_arrays()
        rows = []
        for a in alphas:
            pair = tuple(i for i, reps in enumerate(a) for _ in range(reps))
            rows.append(upper[(min(pair), max(pair))].ravel())
        stacked = np.stack(rows)
    else:
        raise ValueError("grid fields support derivative orders 1 and 2 only")
    return alphas, stacked


def _integer_profile_values(field, order: int, p: float,
                            sphere: SphereQuadrature,
                            box: BoxQuadrature | None) -> np.ndarray:
    alphas, mat, weights = _derivative_samples(field, order, box)
    W = directional_weight_matrix(sphere.nodes, alphas)
    n_pts = mat.shape[1]
    values = np.empty(W.shape[0])
    block = max(1, _SWEEP_BLOCK // max(n_pts, 1))
    for lo in range(0, W.shape[0], block):
        directional = W[lo:lo + block] @ mat
        values[lo:lo + block] = np.abs(directional) ** p @ weights
    if not np.all(np.isfinite(values)):
        raise NumericalFailureError("non-finite directional energy")
    return values


def _separated_lobes_constant(order: int, p: float) -> float:
    """L^p mass ratio of a difference whose lobes no longer overlap."""
    return float(sum(math.comb(order, l) ** p for l in range(order + 1)))


def directional_profile(field, params: SmoothnessParams,
                        quads: QuadratureBundle, *,
                        box: BoxQuadrature | None = None,
                        difference_order: int | None = None,
                        exploit_symmetry: bool = True) -> DirectionalEnergyProfile:
    """Energies D(f, xi) at every node of the bundle's sphere quadrature.

    difference_order overrides the default order floor(s)+1 on the
    non-integer branch (used by the higher-order difference energy); it is
    rejected on the integer branch.
    """
    sphere = quads.sphere
    n = sphere.nodes.shape[0]

    if not params.fractional:
        if difference_order is not None:
            raise ValueError("difference_order applies to the non-integer branch")
        _warn_if_excluded(params)
        order = _integer_order(params)
        if box is None and not isinstance(field, GridField):
            box = quads.box_for(field)
        values = _integer_profile_values(field, order, params.p, sphere, box)
        return DirectionalEnergyProfile(params, sphere, values, np.zeros(n))

    if isinstance(field, GridField):
        raise ValueError("difference-quotient branch needs an analytic field")
    order = params.difference_order if difference_order is None else int(difference_order)
    if order <= params.s:
        raise ValueError("difference order must exceed s")

    values = np.empty(n)
    tails = np.empty(n)
    if exploit_symmetry and sphere.antipode is not None:
        targets = [j for j in range(n) if sphere.antipode[j] >= j]
    else:
        targets = list(range(n))
    values[targets], tails[targets] = _radial_energies(
        field, sphere.nodes[targets], params.s, params.p, order, quads, box)
    if exploit_symmetry and sphere.antipode is not None:
        # reversing the step direction leaves the difference L^p norm unchanged
        # (translate by order*h and flip sign), so antipodes share their energy
        for j in targets:
            k = sphere.antipode[j]
            values[k] = values[j]
            tails[k] = tails[j]
    return DirectionalEnergyProfile(params, sphere, values, tails)


def _radial_energies(field: AnalyticField, directions: np.ndarray, s: float,
                     p: float, order: int, quads: QuadratureBundle,
                     box: BoxQuadrature | None) -> tuple[np.ndarray, np.ndarray]:
    """Radial energy along each direction, and its tail interval.

    At p = 2 the energies of an AnalyticField are exact (finite-part closed
    form, see autocorrelation.py) and the interval bounds their rounding.
    Otherwise an elongated box is swept per direction for the difference
    energies up to the lobe-separation scale t_sep, and the exact
    separated-lobes far field closes the radial integral; `box` only serves
    the sweep's ||f||_p^p.
    """
    if p == 2.0:
        exact = exact_directional_energies(field, directions, s, order)
        if exact is not None:
            return exact
    if box is None:
        box = quads.box_for(field)
    fpp = integrate_box(lambda pts: np.abs(field.evaluate(pts)) ** p, box)
    far_constant = _separated_lobes_constant(order, p) * fpp
    values = np.empty(directions.shape[0])
    tails = np.empty(directions.shape[0])
    for j, xi in enumerate(directions):
        dbox, t_sep = quads.directional_box_for(field, xi, order)
        rq = quads.radial_range(t_sep)
        samples = field.difference_lp_samples(
            xi, rq.nodes, order, p, dbox.nodes, dbox.weights)
        values[j], tails[j] = radial_from_samples(
            samples, s, p, order, rq, far_constant=far_constant)
    return values, tails


def directional_energy(field, params: SmoothnessParams, xi: np.ndarray,
                       quads: QuadratureBundle, *,
                       box: BoxQuadrature | None = None) -> float:
    """Energy along a single unit direction."""
    xi = np.asarray(xi, dtype=float)
    if abs(np.linalg.norm(xi) - 1.0) > 1e-10:
        raise ValueError("direction must be a unit vector")

    if not params.fractional:
        _warn_if_excluded(params)
        order = _integer_order(params)
        if box is None and not isinstance(field, GridField):
            box = quads.box_for(field)
        single = SphereQuadrature(xi[None, :], np.array([1.0]))
        return float(_integer_profile_values(field, order, params.p, single, box)[0])

    values, _ = _radial_energies(field, xi[None, :], params.s, params.p,
                                 params.difference_order, quads, box)
    return float(values[0])


def _derivative_samples(field, order: int, box: BoxQuadrature | None
                        ) -> tuple[list[tuple[int, ...]], np.ndarray, np.ndarray]:
    """All partial derivatives of one order, one row per multi-index, at
    the box nodes (the grid points of a GridField), with their weights."""
    if isinstance(field, GridField):
        alphas, mat = _grid_partial_arrays(field, order)
        return alphas, mat, np.full(mat.shape[1], field.cell_volume)
    assert box is not None
    alphas, mat = _partial_value_matrix(field, order, box.nodes)
    return alphas, mat, box.weights


def _hessian_stack(alphas: list[tuple[int, ...]], mat: np.ndarray,
                   dim: int) -> np.ndarray:
    """Second order samples as one symmetric matrix per point."""
    hess = np.empty((mat.shape[1], dim, dim))
    for a, row in zip(alphas, mat):
        pair = tuple(i for i, reps in enumerate(a) for _ in range(reps))
        i, j = min(pair), max(pair)
        hess[:, i, j] = row
        hess[:, j, i] = row
    return hess


def _hessian_norms(hess: np.ndarray) -> np.ndarray:
    """Largest |eigenvalue| of each matrix in a symmetric stack."""
    return np.abs(np.linalg.eigvalsh(hess)).max(axis=1)


def _scan_directions(dim: int, sphere: SphereQuadrature) -> np.ndarray:
    """Directions of the dense scan that stands in for the order >= 3 norm."""
    return build_sphere_quadrature(dim, 4 * max(sphere.nodes.shape[0], 64)).nodes


def _scan_norms(alphas: list[tuple[int, ...]], mat: np.ndarray,
                directions: np.ndarray) -> np.ndarray:
    """max over the given directions v of |d^order_v f| at each sample."""
    W = directional_weight_matrix(directions, alphas)
    return np.abs(W @ mat).max(axis=0)


def _pointwise_derivative_norm(field, order: int, box: BoxQuadrature | None,
                               sphere: SphereQuadrature) -> tuple[np.ndarray, np.ndarray]:
    """max over unit xi of |d^order_xi f| at each quadrature point.

    Exact for orders 1 and 2 (gradient length, extreme Hessian eigenvalue);
    order >= 3 falls back to a dense scan over sphere directions.
    """
    alphas, mat, weights = _derivative_samples(field, order, box)
    dim = field.dimension
    if order == 1:
        norms = np.sqrt(np.sum(mat ** 2, axis=0))
    elif order == 2:
        norms = _hessian_norms(_hessian_stack(alphas, mat, dim))
    else:
        norms = _scan_norms(alphas, mat, _scan_directions(dim, sphere))
    return norms, weights


def seminorm(field, params: SmoothnessParams, quads: QuadratureBundle, *,
             profile: DirectionalEnergyProfile | None = None) -> float:
    """The homogeneous semi-norm |f|_{s,p} (difference or derivative branch)."""
    if params.fractional:
        if profile is None:
            profile = directional_profile(field, params, quads)
        return profile.integrate() ** (1.0 / params.p)

    _warn_if_excluded(params)
    order = _integer_order(params)
    box = None
    if not isinstance(field, GridField):
        box = quads.box_for(field)
    norms, weights = _pointwise_derivative_norm(field, order, box, quads.sphere)
    total = float(norms ** params.p @ weights)
    if not np.isfinite(total):
        raise NumericalFailureError("non-finite derivative-norm integral")
    return total ** (1.0 / params.p)


def starred_seminorm(field, s: int, p: float, quads: QuadratureBundle, *,
                     profile: DirectionalEnergyProfile | None = None) -> float:
    """Sphere-integrated variant for integer s: (int_S D(f,xi) dsigma)^(1/p)."""
    if abs(s - round(s)) > 1e-12:
        raise ValueError("starred variant is defined for integer s")
    params = SmoothnessParams(float(round(s)), p)
    if profile is None:
        profile = directional_profile(field, params, quads)
    return profile.integrate() ** (1.0 / p)


def _one_d_seminorm_power(field: AnalyticField, params: SmoothnessParams,
                          quads: QuadratureBundle, half_width: float,
                          nodes: int) -> float:
    """p-th power of the semi-norm of a 1-D field.

    The unit sphere in one dimension is the pair {-1, +1}, so the
    difference branch is twice the one-sided radial energy.
    """
    if params.fractional:
        order = params.difference_order
        t_sep = _SEPARATION_FACTOR * half_width
        long_hw = half_width + 0.5 * order * t_sep
        long_n = int(math.ceil(nodes * long_hw / half_width))
        pts, wts = gauss_legendre_nodes(long_hw, long_n)
        rq = quads.radial_range(t_sep)
        fp = float(np.abs(field.evaluate(pts[:, None])) ** params.p @ wts)
        far_constant = _separated_lobes_constant(order, params.p) * fp
        samples = field.difference_lp_samples(
            np.array([1.0]), rq.nodes, order, params.p, pts[:, None], wts)
        value, _ = radial_from_samples(samples, params.s, params.p, order, rq,
                                       far_constant=far_constant)
        return 2.0 * value
    pts, wts = gauss_legendre_nodes(half_width, nodes)
    order = _integer_order(params)
    g = field
    for _ in range(order):
        g = g.partial_derivative(0)
    return float(np.abs(g.evaluate(pts[:, None])) ** params.p @ wts)


def slice_seminorm_crosscheck(field: AnalyticField, params: SmoothnessParams,
                              axis: int, quads: QuadratureBundle, *,
                              transverse_nodes: int = 96,
                              slice_nodes: int = 192) -> tuple[float, float]:
    """Two routes to the same axis energy.

    lhs: twice the directional energy along e_axis (difference branch) or the
    L^p integral of the s-th axis derivative (derivative branch).  rhs: the
    transverse integral of 1-D semi-norm powers of the restrictions, computed
    by a dedicated 1-D pipeline.  The two agree analytically; the residual
    measures quadrature consistency.
    """
    dim = field.dimension
    if not 0 <= axis < dim:
        raise ValueError("axis out of range")
    if dim != 2:
        raise ValueError("cross-check is implemented for two dimensions")
    e = np.zeros(dim)
    e[axis] = 1.0
    lhs = directional_energy(field, params, e, quads)
    if params.fractional:
        lhs *= 2.0

    hw = quads.box_half_width
    other_pts, other_wts = gauss_legendre_nodes(hw, transverse_nodes)
    rhs = 0.0
    for u, w in zip(other_pts, other_wts):
        piece = field.restrict(axis=axis, fixed=np.array([u]))
        rhs += w * _one_d_seminorm_power(piece, params, quads, hw, slice_nodes)
    return lhs, float(rhs)


def slicing_bounds(field, params: SmoothnessParams, basis: np.ndarray,
                   quads: QuadratureBundle) -> tuple[float, float, float]:
    """(sum/N, semi-norm, sum) with sum = sum_i D(f, u_i)^(1/p) over the frame.

    For order-1 derivatives the sandwich sum/N <= |f| <= sum is exact; for
    other orders the caller supplies its own comparison constants.
    """
    basis = np.asarray(basis, dtype=float)
    dim = basis.shape[0]
    if basis.shape != (dim, dim) or np.abs(basis @ basis.T - np.eye(dim)).max() > 1e-10:
        raise ValueError("basis must be an orthonormal frame")
    box = None
    if not isinstance(field, GridField):
        box = quads.box_for(field)
    total = 0.0
    for row in basis:
        total += directional_energy(field, params, row, quads, box=box) ** (1.0 / params.p)
    value = seminorm(field, params, quads)
    return total / dim, value, total


def higher_difference_energy(field: AnalyticField, params: SmoothnessParams,
                             quads: QuadratureBundle) -> float:
    """Full-space difference energy with the order boosted to N*(floor(s)+1).

    Returns the raw integral of ||difference||_p^p / |h|^{sp+N}, the p-th
    power scale, which stays finite because the boosted order still exceeds s.
    """
    if not params.fractional:
        raise ValueError("defined for non-integer s")
    boosted = field.dimension * params.difference_order
    profile = directional_profile(field, params, quads, difference_order=boosted)
    return profile.integrate()


def weak_quasinorm(field: GridField, q: float) -> float:
    """sup over thresholds t of t * (measure of {|f| > t})^(1/q) on the grid.

    The threshold grid is 200 log-spaced points spanning six decades below
    max|f|; the sup of the unimodal threshold profile is stable at that
    density (doubling the grid moves the value below quadrature noise).
    """
    if q <= 0:
        raise ValueError("q must be positive")
    flat = np.abs(np.asarray(field.values, dtype=float)).ravel()
    top = float(flat.max()) if flat.size else 0.0
    if top == 0.0:
        return 0.0
    ordered = np.sort(flat)
    thresholds = np.geomspace(1e-6 * top, top, 200)
    counts = flat.size - np.searchsorted(ordered, thresholds, side="right")
    measures = counts * field.cell_volume
    return float(np.max(thresholds * measures ** (1.0 / q)))
