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
    return float(_lp_power(field, p, box)) ** (1.0 / p)


def _lp_power(field, p: float, box: BoxQuadrature) -> float:
    """Integral of |f|^p over the box.  An overflow of |f|^p is reported
    once, by integrate_box's finiteness check, not also as a warning."""
    with np.errstate(over="ignore"):
        return integrate_box(lambda pts: np.abs(field.evaluate(pts)) ** p, box)


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


def _integer_energies(field, order: int, p: float, directions: np.ndarray,
                      box: BoxQuadrature | None) -> np.ndarray:
    """L^p energy of the order-th derivative along each direction."""
    alphas, mat, weights = _derivative_samples(field, order, box)
    W = directional_weight_matrix(directions, alphas)
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
                        difference_order: int | None = None) -> DirectionalEnergyProfile:
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
        box = None if isinstance(field, GridField) else quads.box_for(field)

        def energies(directions):
            return (_integer_energies(field, order, params.p, directions, box),
                    np.zeros(directions.shape[0]))
    else:
        if isinstance(field, GridField):
            raise ValueError("difference-quotient branch needs an analytic field")
        order = params.difference_order if difference_order is None \
            else int(difference_order)
        if order <= params.s:
            raise ValueError("difference order must exceed s")

        def energies(directions):
            return _radial_energies(field, directions, params.s, params.p,
                                    order, quads, None)

    # reversing the direction leaves both energies unchanged: the derivative
    # flips sign, and the difference L^p norm survives a translation by
    # order*h and a sign flip, so antipodes share their energy
    antipode = np.arange(n) if sphere.antipode is None else sphere.antipode
    targets = np.flatnonzero(antipode >= np.arange(n))
    values = np.empty(n)
    tails = np.empty(n)
    values[targets], tails[targets] = energies(sphere.nodes[targets])
    values[antipode[targets]] = values[targets]
    tails[antipode[targets]] = tails[targets]
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
    fpp = _lp_power(field, p, box)
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
        return float(_integer_energies(field, order, params.p, xi[None, :], box)[0])

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


def _contracted_partials(alphas: list[tuple[int, ...]], mat: np.ndarray,
                         y: np.ndarray) -> np.ndarray:
    """g[i, j] = D^k f(x_i)[y_i^(k-1), e_j] from the order-k partials, so
    that k g[i] is the gradient in y of d^k_y f(x_i)."""
    order, n = sum(alphas[0]), y.shape[1]
    betas = multi_indices(n, order - 1)
    W = directional_weight_matrix(y, betas)
    row = {a: r for r, a in enumerate(alphas)}
    g = np.zeros_like(y)
    for b, beta in enumerate(betas):
        for j in range(n):
            alpha = tuple(e + (i == j) for i, e in enumerate(beta))
            g[:, j] += W[:, b] * mat[row[alpha]]
    return g


class _SampleObjective:
    """T -> |f o T|_{s,p} over determinant-one T, from samples of f taken
    once at T = I: value(T) = (sum_i w_i e_i(T))^(1/p).

    `energies(T)` returns the e_i.  `factors(T)` returns rows a_i, scales
    c_i and rows b_i of the moment S = sum_i w_i c_i a_i b_i^t, whose trace
    is sum_i w_i e_i and whose pairing <S, M> is the derivative of that
    sum along T exp(eps M), divided by p * rate.  Every branch therefore
    has the same exact gradient: rate * power^(1/p - 1) times the
    trace-free part of S.
    """

    def __init__(self, energies, factors, weights: np.ndarray, p: float,
                 rate: float, dimension: int):
        self.energies, self.factors = energies, factors
        self.weights = weights
        self.p, self.rate = float(p), float(rate)
        self.dimension = dimension

    def value(self, matrix: np.ndarray) -> float:
        return float(self.weights @ self.energies(matrix)) ** (1.0 / self.p)

    def moment(self, matrix: np.ndarray) -> np.ndarray:
        left, scale, right = self.factors(matrix)
        return (left * (scale * self.weights)[:, None]).T @ right

    def gradient(self, matrix: np.ndarray) -> np.ndarray:
        s = self.moment(matrix)
        power = np.trace(s)
        projected = s - (power / self.dimension) * np.eye(self.dimension)
        return self.rate * power ** (1.0 / self.p - 1.0) * projected


def _norm_power_objective(vectors: np.ndarray, weights: np.ndarray, q: float,
                          p: float, inverse: bool = False) -> _SampleObjective:
    """e = |v|^q with v = T^t x, or v = T^{-1} x when `inverse` is set.
    d|v|^q = q |v|^{q-2} <v v^t, M> for v = T^t x and the negative of that
    for v = T^{-1} x, so S = sum w |v|^{q-2} v v^t at rate q/p, or -q/p
    when `inverse` is set."""

    def images(matrix):
        if inverse:
            return vectors @ np.linalg.inv(matrix).T
        return vectors @ matrix

    def energies(matrix):
        return np.linalg.norm(images(matrix), axis=1) ** q

    def factors(matrix):
        v = images(matrix)
        speeds = np.linalg.norm(v, axis=1)
        if q < 2.0:
            scale = np.where(speeds > 0.0, speeds ** (q - 2.0), 0.0)
        else:
            scale = speeds ** (q - 2.0)
        return v, scale, v

    rate = (-q if inverse else q) / p
    return _SampleObjective(energies, factors, weights, p, rate,
                            vectors.shape[1])


def _hessian_objective(hessians: np.ndarray, weights: np.ndarray,
                       p: float) -> _SampleObjective:
    """e = |lambda|^p for the top |eigenvalue| lambda of T^t H T.  With v
    its unit eigenvector, d|lambda| = 2 |lambda| <v v^t, M>, so
    S = sum w |lambda|^p v v^t at rate 2.  At a tie any vector of the top
    eigenspace gives a valid subgradient."""

    def energies(matrix):
        lam = np.linalg.eigvalsh(matrix.T @ hessians @ matrix)
        return np.abs(lam).max(axis=1) ** p

    def factors(matrix):
        lam, vecs = np.linalg.eigh(matrix.T @ hessians @ matrix)
        top = np.abs(lam).argmax(axis=1)
        v = np.take_along_axis(vecs, top[:, None, None], axis=2)[:, :, 0]
        lam = np.take_along_axis(lam, top[:, None], axis=1)[:, 0]
        return v, np.abs(lam) ** p, v

    return _SampleObjective(energies, factors, weights, p, 2.0,
                            hessians.shape[1])


def _scan_objective(alphas: list[tuple[int, ...]], mat: np.ndarray,
                    weights: np.ndarray, p: float,
                    directions: np.ndarray) -> _SampleObjective:
    """e = max over the scan directions xi of |d^k_{T xi} f|^p, a dense
    scan standing in for the order k >= 3 norm.  By Danskin's theorem the
    derivative is taken at each sample's maximising xi*: d h = k D^k f
    [(T xi*)^(k-1), T M xi*] = k <T^t g xi*^t, M>, so with h the signed
    maximum, S = sum w |h|^(p-1) sign(h) (T^t g) xi*^t at rate k."""
    n_pts = mat.shape[1]

    def scan(matrix):
        """Signed maximum h at each sample and the index of its xi*, in
        blocks of samples that each hold about _SWEEP_BLOCK values."""
        W = directional_weight_matrix(directions @ matrix.T, alphas)
        h = np.empty(n_pts)
        top = np.empty(n_pts, dtype=np.intp)
        block = max(1, _SWEEP_BLOCK // W.shape[0])
        for lo in range(0, n_pts, block):
            values = W @ mat[:, lo:lo + block]
            top[lo:lo + block] = np.abs(values).argmax(axis=0)
            h[lo:lo + block] = np.take_along_axis(
                values, top[None, lo:lo + block], axis=0)[0]
        return h, top

    def energies(matrix):
        return np.abs(scan(matrix)[0]) ** p

    def factors(matrix):
        h, top = scan(matrix)
        xi = directions[top]
        g = _contracted_partials(alphas, mat, xi @ matrix.T)
        return g @ matrix, np.sign(h) * np.abs(h) ** (p - 1.0), xi

    return _SampleObjective(energies, factors, weights, p,
                            float(sum(alphas[0])), directions.shape[1])


def _sample_objective(field, params: SmoothnessParams,
                      quads: QuadratureBundle, *,
                      profile: DirectionalEnergyProfile | None = None
                      ) -> _SampleObjective:
    """The objective T -> |f o T|_{s,p} on samples of f taken at T = I.
    With det T = 1 changes of variables keep those samples valid at every T:

    - s = 1: the integral of |T^t grad f(Tx)|^p equals that of
      |T^t grad f|^p over the original box;
    - fractional s: |f o T|_{s,p}^p = int_S |T^{-1} eta|^{-(N+sp)}
      D(f, eta) dsigma(eta), so one directional profile of f suffices
      (`profile`, computed here when not given);
    - integer s >= 2: the s-th derivative of f o T along xi is that of f
      along T xi, applied to the order-s partials of f on the original box.
    """
    n = field.dimension
    if params.fractional:
        if profile is None:
            profile = directional_profile(field, params, quads)
        sphere = profile.sphere
        return _norm_power_objective(
            sphere.nodes, sphere.weights * profile.values,
            -(n + params.s * params.p), params.p, inverse=True)
    order = _integer_order(params)
    box = None if isinstance(field, GridField) else quads.box_for(field)
    alphas, mat, weights = _derivative_samples(field, order, box)
    if order == 1:
        grads = np.empty((mat.shape[1], n))
        for a, row in zip(alphas, mat):
            grads[:, a.index(1)] = row
        return _norm_power_objective(grads, weights, params.p, params.p)
    if order == 2:
        return _hessian_objective(_hessian_stack(alphas, mat, n), weights,
                                  params.p)
    # the scan has about four times the sphere's nodes; a 3-D rule with
    # resolution r has 2 r^2 of them
    count = 4 * max(quads.sphere.nodes.shape[0], 64)
    resolution = count if n == 2 else math.ceil(math.sqrt(count / 2))
    directions = build_sphere_quadrature(n, resolution).nodes
    return _scan_objective(alphas, mat, weights, params.p, directions)


def seminorm(field, params: SmoothnessParams, quads: QuadratureBundle, *,
             profile: DirectionalEnergyProfile | None = None) -> float:
    """The homogeneous semi-norm |f|_{s,p} (difference or derivative branch).

    On the derivative branch it is the optimizer's objective at T = I.
    """
    if params.fractional:
        if profile is None:
            profile = directional_profile(field, params, quads)
        return profile.integrate() ** (1.0 / params.p)

    _warn_if_excluded(params)
    value = _sample_objective(field, params, quads).value(np.eye(field.dimension))
    if not np.isfinite(value):
        raise NumericalFailureError("non-finite derivative-norm integral")
    return value


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
