"""Directional energies and homogeneous smoothness functionals.

Both branches of the semi-norm are driven by the same object: a profile of
directional energies D(f, xi) sampled on a sphere quadrature.  For
non-integer s the energy along xi is the weighted radial integral of
||difference of order m at step t*xi||_p^p with m = floor(s)+1; for integer
s it is the L^p integral of the s-th directional derivative.  The profile
is what the affine energies aggregate, so it is computed once and reused.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .autocorrelation import exact_directional_energies
from .fields import (
    _DROP_SHARE,
    _DROP_TOLERANCE,
    _SWEEP_BLOCK,
    AnalyticField,
    GridField,
    NumericalFailureError,
    SmoothnessParams,
    _abs_power,
    _point_blocks,
    _taylor_rows,
    difference_stencil,
    directional_weight_matrix,
    multi_indices,
)
from .quadrature import (
    _DEFAULT_NODES,
    _SEPARATION_FACTOR,
    BOX_HALF_WIDTH,
    BoxQuadrature,
    QuadratureBundle,
    RadialQuadrature,
    RadialSpec,
    SphereQuadrature,
    _frame_through,
    build_sphere_quadrature,
    fitted_axes,
    gauss_legendre_nodes,
    integrate_box,
    radial_from_samples,
)

# the fractional objective trusts T where the sphere rule integrates the
# Jacobian |T^{-1} eta|^{-N} (exactly the area at det T = 1) to this relative
# accuracy: an estimate of how it resolves |T^{-1} eta|^{-(N+sp)}, not a bound
_PUSHFORWARD_TOL = 1e-3

# Gauss-Legendre nodes of slice_seminorm_crosscheck across the slices
_SLICE_TRANSVERSE_NODES = 96

# the s = 1 polar rule of a single Gaussian is sized for, and trusts, T
# with cond(T^t A^(1/2)) up to this multiple of cond(A^(1/2)), and puts
# this many nodes per unit of that condition round every circle: from
# condition 2 to 160 the trapezoid rule then integrates |M theta|^p,
# p in {1, 1.5, 3}, to 5e-15, and the 3-D rule (as many azimuths, half as
# many Gauss-Legendre bands) to 4e-14
_POLAR_MARGIN = 4.0
_POLAR_NODES_PER_CONDITION = 25.0

# the tanh-sinh rule of J_k(p) on each piece between roots of He_k: step
# and reach in t, where the weights are below 1e-80 of the piece
_TANH_SINH_STEP = 1.0 / 32.0
_TANH_SINH_REACH = 4.0

_EXCLUDED_MESSAGE = (
    "derivative order >= 2 with p = 1 sits outside the two-sided comparison "
    "range; the energy is still computed"
)


@dataclass(frozen=True)
class DirectionalEnergyProfile:
    """Per-direction energies D(f, xi_j) on a sphere quadrature.

    values[j] is the p-th power energy along sphere.nodes[j].  On the swept
    difference branch tail_interval[j] covers only the radial head model
    and the far field, not the box, sphere or panel error, which at coarse
    tiers is 1e4 to 1e10 times larger.  A single Gaussian at odd or
    non-integer p has no box: its interval is that of the line integral E
    (_gaussian_energies), again head model and far field only, scaled like
    the value.  It does not cover the sphere error, nor E's node and panel
    error, which from 36 nodes and 16 panels on measured 1e-13 to 4e-7 of
    E for s in [0.1, 2.5] and p in [1, 5], largest at p = 5 and up to 1e3
    times the interval.  One term with a polynomial factor at such p takes
    the whitened line table (_single_term_energies), whose interval again
    covers the head model and far field only, like the sweep's.  At even
    p, integer sp/2 included, the energies of an AnalyticField are closed
    forms, and tail_interval[j] bounds their rounding error.  On the
    derivative branch it is zero, and `samples` holds the
    _derivative_samples of the objective (else None), which the energies
    came from.  A single Gaussian's energies are closed forms instead
    (_gaussian_derivative_energies); its samples are polar at s = 1, the
    vectors A^(1/2) theta_j of a sphere rule (_polar_samples), and the
    box's partials at s >= 2, or where the polar rule would outgrow the
    box.  The profile is `degenerate` when some value is exactly zero,
    which for an AnalyticField (positive definite precisions only) means
    f = 0, as for a Gaussian plus its negative.
    """

    params: SmoothnessParams
    sphere: SphereQuadrature
    values: np.ndarray
    tail_interval: np.ndarray
    samples: tuple | None = dataclass_field(default=None, repr=False,
                                            compare=False)

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
    def degenerate(self) -> bool:
        """True when some node carries exactly zero energy."""
        return bool(np.any(self.values == 0.0))

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


def _warn_if_excluded(params: SmoothnessParams, stacklevel: int = 3) -> None:
    """`stacklevel` is counted from here to the caller of the public
    function that took params."""
    if params.excluded:
        warnings.warn(_EXCLUDED_MESSAGE, RuntimeWarning, stacklevel=stacklevel)


def _integer_energies(samples, p: float, directions: np.ndarray) -> np.ndarray:
    """L^p energy of the derivative along each direction from `samples`.

    At p = 2 the energy is the quadratic form W(xi)^t G W(xi) of the
    weighted Gram matrix G = R^t R of the partials, with R the triangular
    factor of the weighted samples: |R W(xi)^t|^2 is nonnegative, and
    exactly 0 where W(xi) meets only all-zero partials, whose columns of R
    are exactly zero.  Other p take the points in the blocks of
    _direction_blocks, so each block's |derivative|^p stays in cache.
    """
    alphas, mat, weights = samples
    W = directional_weight_matrix(directions, alphas)
    if p == 2.0:
        r = np.linalg.qr((mat * np.sqrt(weights)).T, mode="r")
        values = np.sum((W @ r.T) ** 2, axis=1)
    else:
        values, work = np.zeros(W.shape[0]), None
        for points, directional in _direction_blocks(W, mat):
            if work is None:  # the first block is the widest
                work = np.empty_like(directional)
            _abs_power(directional, p, work[:, :directional.shape[1]])
            values += directional @ weights[points]
    if not np.all(np.isfinite(values)):
        raise NumericalFailureError("non-finite directional energy")
    return values


def _direction_blocks(W: np.ndarray, mat: np.ndarray):
    """(points, W @ mat[:, points]) for consecutive slices of about
    _SWEEP_BLOCK // (rows of W) sample points, so the partials are read
    once.  The product's last bits depend on where the blocks end (with
    ten partials, order 3 in 3-D), so these are not _point_blocks."""
    size = max(1, _SWEEP_BLOCK // W.shape[0])
    for lo in range(0, mat.shape[1], size):
        points = slice(lo, lo + size)
        yield points, W @ mat[:, points]


def _separated_lobes_constant(order: int, p: float) -> float:
    """L^p mass ratio of a difference whose lobes no longer overlap: the sum
    of |coefficient|^p over the difference stencil."""
    return float(sum(abs(coeff) ** p
                     for _, coeff in difference_stencil(order)))


def directional_profile(field, params: SmoothnessParams,
                        quads: QuadratureBundle) -> DirectionalEnergyProfile:
    """Energies D(f, xi) at every node of the bundle's sphere quadrature,
    with differences of order floor(s)+1 on the non-integer branch."""
    sphere = quads.sphere
    n, antipode = sphere.nodes.shape[0], sphere.antipode
    # reversing the direction leaves both energies unchanged: the derivative
    # flips sign, and the difference L^p norm survives a translation by
    # order*h and a sign flip, so antipodes share their energy
    targets = np.flatnonzero(antipode >= np.arange(n))
    values = np.empty(n)
    tails = np.empty(n)
    values[targets], tails[targets], samples = _direction_energies(
        field, params, sphere.nodes[targets], quads)
    if samples is None and not params.fractional:
        # closed-form energies; the profile keeps the objective's samples
        samples = _derivative_samples(field, _integer_order(params), quads,
                                      params.p)
    values[antipode[targets]] = values[targets]
    tails[antipode[targets]] = tails[targets]
    return DirectionalEnergyProfile(params, sphere, values, tails, samples)


def _profile_for(field, params: SmoothnessParams, quads: QuadratureBundle,
                 profile: DirectionalEnergyProfile | None
                 ) -> DirectionalEnergyProfile:
    """`profile`, checked against `params`, or else the field's profile."""
    if profile is None:
        return directional_profile(field, params, quads)
    if profile.params != params:
        raise ValueError(f"profile is for {profile.params}, not {params}")
    return profile


def _radial_energies(field: AnalyticField, directions: np.ndarray, s: float,
                     p: float, order: int, quads: QuadratureBundle
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Radial energy along each direction, and its tail interval, in any
    dimension from 1 to 3; the path is chosen from p and the field's terms
    alone.

    At even p the energies are exact (finite parts of Gaussian products,
    see autocorrelation.py, including integer sp/2) and the interval bounds
    their rounding; a product that overflows raises NumericalFailureError.
    Otherwise a single Gaussian takes its energies from one 1-D line
    integral (_gaussian_energies), a single term with a polynomial factor
    from one whitened line table that every direction shares
    (_single_term_energies), and a field with several terms is swept box by
    box (_swept_energies).
    """
    if p % 2.0 == 0.0:
        return exact_directional_energies(field, directions, s, p, order)
    if _single_gaussian(field):
        return _gaussian_energies(field, directions, s, p, order, quads)
    if len(field.terms) == 1:
        return _single_term_energies(field, directions, s, p, order, quads)
    return _swept_energies(field, directions, s, p, order, quads)


def _gaussian_energies(field: AnalyticField, directions: np.ndarray, s: float,
                       p: float, order: int, quads: QuadratureBundle
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Energies of f = c exp(-(x - mu)^T A (x - mu) / 2) and their tail
    intervals, from the change of variables y = A^(1/2) (x - mu):

        D(f, xi) = |c|^p (2 pi / p)^((N-1)/2) det(A)^(-1/2)
                   (xi^T A xi)^(sp/2) E(s, p, m),

    with E the one-sided energy of the 1-D unit Gaussian
    (_gaussian_line_energy).  The mean drops out, and the tail intervals
    scale by the same factor."""
    scale = _gaussian_scale(field, directions, p, 0.5 * s * p)
    energy, tail = _gaussian_line_energy(s, p, order, quads)
    return scale * energy, scale * tail


def _single_gaussian(field) -> bool:
    """True for an AnalyticField of one term with a constant polynomial."""
    return (isinstance(field, AnalyticField) and len(field.terms) == 1
            and field.terms[0].polynomial.degree == 0)


def _gaussian_amplitude(field: AnalyticField) -> np.float64:
    """c of a single Gaussian c exp(-(x - mu)^T A (x - mu) / 2): the one
    coefficient of its constant polynomial, 0 for the zero one.  A numpy
    float, so that |c|^p overflows to inf rather than raising
    OverflowError, and the factors it starts can be checked for that."""
    term = field.terms[0]
    return np.float64(term.coefficient
                      * float(term.polynomial.coefficients.sum()))


def _gaussian_scale(field: AnalyticField, directions: np.ndarray, p: float,
                    exponent: float) -> np.ndarray:
    """|c|^p (2 pi / p)^((N-1)/2) det(A)^(-1/2) (xi^T A xi)^exponent along
    each direction: the factor of a single Gaussian's directional energies
    that holds everything but a 1-D integral; NumericalFailureError where
    it overflows."""
    term = field.terms[0]
    _, log_det = np.linalg.slogdet(term.precision)
    forms = np.einsum("ij,jk,ik->i", directions, term.precision, directions)
    with np.errstate(over="ignore"):
        scale = (abs(_gaussian_amplitude(field)) ** p
                 * (2.0 * math.pi / p) ** (0.5 * (field.dimension - 1))
                 * math.exp(-0.5 * log_det)) * forms ** exponent
    if not np.all(np.isfinite(scale)):
        raise NumericalFailureError(
            "a single Gaussian's energy factor overflows")
    return scale


def _gaussian_derivative_energies(field: AnalyticField,
                                  directions: np.ndarray, order: int,
                                  p: float) -> np.ndarray:
    """D(f, xi) = int |d^k_xi f|^p dx of a single Gaussian at order k:

        D(f, xi) = |c|^p (2 pi / p)^((N-1)/2) det(A)^(-1/2)
                   (xi^T A xi)^(kp/2) J_k(p).

    In z = A^(1/2) (x - mu), with u the coordinate along A^(1/2) xi and y
    across it, d^k_xi f = c (xi^T A xi)^(k/2) (-1)^k He_k(u)
    exp(-(u^2 + |y|^2) / 2), so y integrates in closed form and u gives
    J_k(p) (_hermite_power_integral)."""
    return _hermite_power_integral(order, p) * _gaussian_scale(
        field, directions, p, 0.5 * order * p)


@functools.lru_cache(maxsize=None)
def _hermite_power_integral(order: int, p: float) -> float:
    """J_k(p) = int |He_k(u)|^p exp(-p u^2 / 2) du over the line, with He_k
    the monic Hermite polynomial of order k.

    J_1(p) = (2/p)^((p+1)/2) Gamma((p+1)/2).  From k = 2 on the integrand
    is even, so J_k(p) is twice the integral over [0, r + 40 / sqrt(p)],
    with r the largest root of He_k: beyond it exp(-p u^2 / 2) has fallen
    by exp(-800).  That range is split at the positive roots, where
    |He_k|^p behaves like |u - r|^p, which Gauss-Legendre pieces resolve
    only algebraically (4.5e-9 off at p = 1.5).  A tanh-sinh rule on each
    piece clusters its nodes double exponentially at both ends; it met
    mpmath to 3e-15 for k <= 4 and p in [1, 4.5].  He_k is the product of
    u - r over its roots, taken in logarithms so that no power overflows.
    """
    if order == 1:
        return (2.0 / p) ** (0.5 * (p + 1.0)) * math.gamma(0.5 * (p + 1.0))
    # hermeroots sorts the roots, which are symmetric about 0
    positive = np.polynomial.hermite_e.hermeroots(
        (0.0,) * order + (1.0,))[order - order // 2:]
    roots = np.concatenate([-positive[::-1], np.zeros(order % 2), positive])
    edges = np.concatenate([[0.0], positive,
                            [positive[-1] + 40.0 / math.sqrt(p)]])
    count = int(math.ceil(_TANH_SINH_REACH / _TANH_SINH_STEP))
    t = _TANH_SINH_STEP * np.arange(-count, count + 1)
    arg = 0.5 * math.pi * np.sinh(t)
    weights = _TANH_SINH_STEP * 0.5 * math.pi * np.cosh(t) / np.cosh(arg) ** 2
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    u = 0.5 * (edges[1:] + edges[:-1])[:, None] + half * np.tanh(arg)
    with np.errstate(divide="ignore"):
        # log 0 = -inf at the roots, where the integrand is exactly 0
        logs = np.log(np.abs(u[:, :, None] - roots)).sum(axis=2)
    integrand = np.exp(p * (logs - 0.5 * u * u))
    return 2.0 * float(np.sum(half * weights * integrand))


def _gaussian_line_energy(s: float, p: float, order: int,
                          quads: QuadratureBundle) -> tuple[float, float]:
    """E(s, p, m) = int_0^inf t^(-1-sp) int |Delta^m_t phi(u)|^p du dt for
    phi(u) = exp(-u^2 / 2), and its tail interval: the bundle's radial rule
    up to the unit Gaussian's lobe-separation scale, with the head model
    and the separated-lobes far field of radial_from_samples, whose L^p
    mass is that constant times int phi^p = sqrt(2 pi / p).  It depends on
    the bundle through its box node count and radial spec alone, and is
    computed once per such tier (_cached_line_energy)."""
    return _cached_line_energy(s, p, order, quads.box_nodes,
                               quads.radial_spec)


@functools.lru_cache(maxsize=None)
def _cached_line_energy(s: float, p: float, order: int, box_nodes: int,
                        radial_spec: RadialSpec) -> tuple[float, float]:
    """_gaussian_line_energy on a tier's line nodes and radial spec."""
    rq = RadialQuadrature.for_range(radial_spec,
                                    _SEPARATION_FACTOR * BOX_HALF_WIDTH)
    samples = _gaussian_difference_lp(rq.nodes, order, p, box_nodes)
    far_constant = (_separated_lobes_constant(order, p)
                    * math.sqrt(2.0 * math.pi / p))
    return radial_from_samples(samples, s, p, order, rq,
                               far_constant=far_constant)


# grid points per unit of u that bracket the zeros of Delta^m_t phi, and
# the bisections that narrow each bracket to 1/8 * 2^-24 = 7e-9: splits
# that far from the zeros move E by 2e-15 at s = 1.5, p = 1 (4e-14 after
# 16 bisections, 2.5e-9 after 8)
_ZERO_GRID = 8
_ZERO_BISECTIONS = 24
# steps up to this one take Delta as phi(u) sum_l c_l expm1(a_l)
_SMALL_STEP = 1.0


def _gaussian_difference_lp(ts: np.ndarray, order: int, p: float,
                            nodes: int) -> np.ndarray:
    """int |Delta^order_t phi(u)|^p du over the line at every step t, for
    steps in ascending order, as the radial rule's nodes are.

    The centered difference is even or odd in u, so the integral is twice
    the one over [0, BOX_HALF_WIDTH + order t / 2], beyond which every
    shifted copy of phi is below exp(-32).  |Delta|^p is smooth between the
    positive zeros of Delta, so that range is split there and each piece
    takes `nodes` Gauss-Legendre nodes.  The Gaussian kernel is variation
    diminishing, so Delta has at most `order` real zeros, and by symmetry
    at most floor(order / 2) positive ones (none at order 1); they are
    bracketed on a grid that leaves out u = 0, where an odd difference
    vanishes, and bisected, all steps at once.

    With offsets o_l and weights c_l, phi(u + o_l t) = phi(u) exp(a_l) for
    a_l = -o_l t (u + o_l t / 2), and the c_l sum to zero, so up to
    _SMALL_STEP Delta is phi(u) sum_l c_l expm1(a_l).  Its rounding is
    then eps t u times the terms' size, not eps: the sum of the copies
    themselves lost 5e-9 of g(1e-4) at order 2, and 2e-13 of E at
    s = 1.5, p = 2.  a_l stays below u^2 / 2, far from overflow there.
    """
    ts = np.asarray(ts, dtype=float)
    shifts = difference_stencil(order)
    split = int(np.searchsorted(ts, _SMALL_STEP, side="right"))

    def delta(u: np.ndarray) -> np.ndarray:
        """Delta at u, whose rows belong to the steps in order."""
        t = ts.reshape((-1,) + (1,) * (u.ndim - 1))
        out = np.empty(u.shape)
        v, h = u[:split], t[:split]
        out[:split] = np.exp(-0.5 * v * v) * sum(
            weight * np.expm1(-offset * h * (v + 0.5 * offset * h))
            for offset, weight in shifts)
        v, h = u[split:], t[split:]
        out[split:] = sum(weight * np.exp(-0.5 * (v + offset * h) ** 2)
                          for offset, weight in shifts)
        return out

    reach = BOX_HALF_WIDTH + 0.5 * order * ts
    edges = np.concatenate([np.zeros((ts.shape[0], 1)),
                            _positive_zeros(delta, reach, order // 2),
                            reach[:, None]], axis=1)
    x, w = gauss_legendre_nodes(1.0, nodes)
    half = 0.5 * (edges[:, 1:] - edges[:, :-1])[:, :, None]
    u = 0.5 * (edges[:, 1:] + edges[:, :-1])[:, :, None] + half * x
    return 2.0 * np.sum(np.abs(delta(u)) ** p * (half * w), axis=(1, 2))


def _positive_zeros(delta, reach: np.ndarray, most: int) -> np.ndarray:
    """Up to `most` sign changes of delta on each row's (0, reach], in
    order; a row with fewer ends in empty brackets at its reach.  More
    flips than `most` are rounding, as at order 4 and t near T_MIN, where
    t^4 is at the level of eps, and such a row's |Delta|^p is noise however
    it is split."""
    if most == 0:
        return np.empty((reach.shape[0], 0))
    count = int(math.ceil(_ZERO_GRID * reach.max()))
    grid = reach[:, None] * (np.arange(1, count + 1) / count)
    positive = delta(grid) > 0.0
    flips = positive[:, 1:] != positive[:, :-1]
    rows, cols = np.nonzero(flips)
    rank = np.cumsum(flips, axis=1)[rows, cols] - 1
    keep = rank < most
    rows, cols, rank = rows[keep], cols[keep], rank[keep]
    lo = np.repeat(reach[:, None], int(rank.max()) + 1 if rank.size else 0,
                   axis=1)
    hi = lo.copy()
    lo[rows, rank], hi[rows, rank] = grid[rows, cols], grid[rows, cols + 1]
    lo_positive = delta(lo) > 0.0
    for _ in range(_ZERO_BISECTIONS):
        mid = 0.5 * (lo + hi)
        same = (delta(mid) > 0.0) == lo_positive
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
    return 0.5 * (lo + hi)


def _single_term_energies(field: AnalyticField, directions: np.ndarray,
                          s: float, p: float, order: int,
                          quads: QuadratureBundle
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Energies of f = c q(x) exp(-(x - mu)^T A (x - mu) / 2) and their tail
    intervals, in the whitened coordinates z = A^(1/2) (x - mu).

    With nu = (xi^T A xi)^(1/2), the Householder frame through
    eta = A^(1/2) xi / nu splits z into u along eta and y across it, and a
    step t xi becomes h = nu t along u.  The centered difference factors:

        Delta(u, y; h) = exp(-|y|^2 / 2) sum_j a_j(y) Gamma_j(u, h),
        Gamma_j(u, h) = sum_l c_l (u + o_l h)^j phi(u + o_l h),

    with phi(v) = exp(-v^2 / 2) and the Taylor rows
    a_j(y) = c nu^(-j) (d_xi^j q)(mu + A^(-1/2) y) / j!, so that

        D(f, xi) = det(A)^(-1/2) nu^(sp) int_0^inf h^(-1-sp) G(h) dh,
        G(h) = int |exp(-|y|^2 / 2) sum_j a_j(y) Gamma_j(u, h)|^p du dy.

    The Gamma_j table is one per profile, on rules every direction shares
    (whitened_rules: the directional box of a unit-precision term, and the
    radial rule up to its t_sep, in h); a direction only evaluates its a_j
    on the cross-section nodes (_taylor_columns).  G comes from products of
    the table with those columns (_table_energy), and the sweep's head
    model and separated-lobes far field close the radial integral; the far
    field takes the L^p mass of f on the fitted box, as the sweep does.  A
    tail interval covers those two models only.  Memory: the table and its
    magnitudes, (steps x U) x (degree + 1) each, two work arrays of about
    _SWEEP_BLOCK values, and the columns of a block of directions.
    """
    term = field.terms[0]
    degree = term.polynomial.degree
    u, u_weights, cross, h_sep = quads.whitened_rules_for(degree, order)
    rq = quads.radial_range(h_sep)
    table = _line_table(u, u_weights ** (1.0 / p), rq.nodes, order, degree)
    eig, vec = np.linalg.eigh(term.precision)
    root = (vec * np.sqrt(eig)) @ vec.T
    inverse_root = (vec / np.sqrt(eig)) @ vec.T
    forms = np.einsum("ij,jk,ik->i", directions, term.precision, directions)
    nus = np.sqrt(forms)
    y = cross.nodes
    # exp(-|y|^2 / 2) and the cross weight, the latter taken inside |.|^p
    column_scale = (np.exp(-0.5 * np.einsum("ij,ij->i", y, y))
                    * cross.weights ** (1.0 / p))
    magnitudes = np.abs(table)
    steps = rq.nodes.shape[0]
    samples = np.empty((directions.shape[0], steps))
    # the directions whose cross nodes make about _SWEEP_BLOCK points
    per_block = max(1, _SWEEP_BLOCK // y.shape[0])
    work = np.empty((2, max(_SWEEP_BLOCK, y.shape[0], table.shape[0])))
    for lo in range(0, directions.shape[0], per_block):
        block = slice(lo, lo + per_block)
        taylor = _taylor_columns(term, directions[block], nus[block], root,
                                 inverse_root, y)
        for j, columns in enumerate(taylor, start=lo):
            samples[j] = _table_energy(table, magnitudes,
                                       columns * column_scale, p, steps, work)
    log_det = float(np.log(eig).sum())
    # the far field's L^p mass of f in the whitened coordinates
    far_constant = (_separated_lobes_constant(order, p) * math.exp(
        0.5 * log_det) * _lp_power(field, p, quads.box_for(field)))
    values = np.empty(directions.shape[0])
    tails = np.empty(directions.shape[0])
    for j in range(directions.shape[0]):
        values[j], tails[j] = radial_from_samples(
            samples[j], s, p, order, rq, far_constant=far_constant)
    scale = math.exp(-0.5 * log_det) * forms ** (0.5 * s * p)
    return scale * values, scale * tails


def _line_table(u: np.ndarray, u_scale: np.ndarray, hs: np.ndarray,
                order: int, degree: int) -> np.ndarray:
    """u_scale[i] Gamma_j(u[i], hs[k]) for j = 0 .. degree, one row per
    (k, i), k-major: shape (K * U, degree + 1)."""
    table = np.zeros((hs.shape[0], u.shape[0], degree + 1))
    for offset, coeff in difference_stencil(order):
        v = u + offset * hs[:, None]
        power = coeff * np.exp(-0.5 * v * v)
        for j in range(degree + 1):
            table[:, :, j] += power
            power *= v
    table *= u_scale[:, None]
    return table.reshape(-1, degree + 1)


def _taylor_columns(term, directions: np.ndarray, nus: np.ndarray,
                    root: np.ndarray, inverse_root: np.ndarray,
                    y: np.ndarray) -> np.ndarray:
    """a_j(y) = c nu^(-j) (d_xi^j q)(mu + A^(-1/2) Y) / j! at the cross
    nodes y of each direction, where Y = (0, y) in the Householder frame
    through A^(1/2) xi / nu: shape (directions, degree + 1, nodes), from
    the Taylor rows (_taylor_rows) in units of nu."""
    points = np.concatenate([
        term.mean + y @ (inverse_root @ _frame_through(eta)[:, 1:]).T
        for eta in (directions @ root) / nus[:, None]])
    return _taylor_rows(term, points.T, directions, nus)


def _table_energy(table: np.ndarray, magnitudes: np.ndarray,
                  columns: np.ndarray, p: float, steps: int,
                  work: np.ndarray) -> np.ndarray:
    """G at each of the `steps` steps: the sum over that step's rows of
    `table` (from _line_table) and over the nodes of |table @ columns|^p.

    With top_j = max |columns_j|, an entry is at most bound * spread, where
    a row's bound = sum_j |table_j| top_j (`magnitudes` is |table|) and a
    node's spread = max_j |columns_j| / top_j.  As the sweep drops nodes,
    a row whose bound^p is at most _DROP_SHARE / U of its step's total,
    and a node whose spread^p is at most _DROP_SHARE / P of the nodes'
    total, are left out, and the pairs left out of a step add at most
    (dropped rows' bound^p) (all spread^p) + (kept rows' bound^p)
    (dropped nodes' spread^p).  A step where that exceeds _DROP_TOLERANCE
    of its kept sum is summed again over every pair.  A bound that is not
    finite keeps every pair, so a non-finite entry still reaches
    _table_sums, which raises NumericalFailureError.
    """
    top = np.abs(columns).max(axis=1)
    with np.errstate(all="ignore"):
        spread = np.divide(np.abs(columns), top[:, None],
                           out=np.zeros_like(columns),
                           where=top[:, None] > 0.0).max(axis=0) ** p
        bound = magnitudes @ top
        _abs_power(bound, p, work[0, :bound.shape[0]])
        bound = bound.reshape(steps, -1)
        totals = bound.sum(axis=1)
        mass = float(spread.sum())
    if not (np.all(np.isfinite(totals)) and math.isfinite(mass)):
        return _table_sums(table, np.arange(table.shape[0]), columns, p,
                           steps, work)
    if mass == 0.0:
        # every a_j vanishes on the cross nodes, as for a zero amplitude
        return np.zeros(steps)
    dropped = bound <= (_DROP_SHARE / bound.shape[1]) * totals[:, None]
    left = spread <= (_DROP_SHARE / spread.shape[0]) * mass
    rows_out = np.add.reduce(bound, axis=1, where=dropped)
    charged = (rows_out * mass
               + (totals - rows_out) * float(spread[left].sum()))
    sums = _table_sums(table, np.flatnonzero(~dropped),
                       columns[:, ~left], p, steps, work)
    short = charged > _DROP_TOLERANCE * sums
    if short.any():
        every = np.flatnonzero(np.repeat(short, bound.shape[1]))
        sums[short] = _table_sums(table, every, columns, p, steps,
                                  work)[short]
    return sums


def _table_sums(table: np.ndarray, rows: np.ndarray, columns: np.ndarray,
                p: float, steps: int, work: np.ndarray) -> np.ndarray:
    """Per step, the sum over the given rows of `table` (indices, in
    order) and over the nodes of |table @ columns|^p, in blocks of rows
    that fill the two rows of `work`, at least one table row each."""
    size = max(1, work.shape[1] // columns.shape[1])
    work = work[:, :size * columns.shape[1]].reshape(2, size, -1)
    sums = np.empty(rows.shape[0])
    # a product with ones sums each row faster than numpy's reduction
    ones = np.ones(columns.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, rows.shape[0], size):
            part = rows[lo:lo + size]
            block = np.matmul(table[part], columns,
                              out=work[0, :part.shape[0]])
            _abs_power(block, p, work[1, :part.shape[0]])
            np.matmul(block, ones, out=sums[lo:lo + size])
    if not np.all(np.isfinite(sums)):
        raise NumericalFailureError("non-finite difference values")
    return np.bincount(rows // (table.shape[0] // steps), weights=sums,
                       minlength=steps)


def _swept_energies(field: AnalyticField, directions: np.ndarray, s: float,
                    p: float, order: int, quads: QuadratureBundle
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Radial energy along each direction, and its tail interval, from an
    elongated box swept per direction, in order on the calling thread, for
    the difference energies up to the lobe-separation scale t_sep; the
    exact separated-lobes far field closes the radial integral."""
    fpp = _lp_power(field, p, quads.box_for(field))
    far_constant = _separated_lobes_constant(order, p) * fpp
    values = np.empty(directions.shape[0])
    tails = np.empty(directions.shape[0])
    for j in range(directions.shape[0]):
        dbox, t_sep = quads.directional_box_for(field, directions[j], order)
        rq = quads.radial_range(t_sep)
        samples = field.difference_lp_samples(
            directions[j], rq.nodes, order, p, dbox.nodes, dbox.weights)
        values[j], tails[j] = radial_from_samples(
            samples, s, p, order, rq, far_constant=far_constant)
    return values, tails


def directional_energy(field, params: SmoothnessParams, xi: np.ndarray,
                       quads: QuadratureBundle) -> float:
    """Energy along a single unit direction."""
    xi = np.asarray(xi, dtype=float)
    if abs(np.linalg.norm(xi) - 1.0) > 1e-10:
        raise ValueError("direction must be a unit vector")
    values, _, _ = _direction_energies(field, params, xi[None, :], quads)
    return float(values[0])


def _direction_energies(field, params: SmoothnessParams,
                        directions: np.ndarray, quads: QuadratureBundle
                        ) -> tuple[np.ndarray, np.ndarray, tuple | None]:
    """Energy, tail interval and derivative samples (None for differences
    and for a single Gaussian's closed forms) along the directions:
    derivative branch at integer s, else differences."""
    if not params.fractional:
        _warn_if_excluded(params, stacklevel=4)
        order = _integer_order(params)
        zeros = np.zeros(directions.shape[0])
        if _single_gaussian(field):
            return (_gaussian_derivative_energies(field, directions, order,
                                                  params.p), zeros, None)
        samples = _derivative_samples(field, order, quads, params.p)
        return _integer_energies(samples, params.p, directions), zeros, samples
    if isinstance(field, GridField):
        raise ValueError("difference-quotient branch needs an analytic field")
    return (*_radial_energies(field, directions, params.s, params.p,
                              params.difference_order, quads), None)


def _derivative_samples(field, order: int, quads: QuadratureBundle,
                        p: float
                        ) -> tuple[list[tuple[int, ...]], np.ndarray, np.ndarray]:
    """All order-k partials, one row per multi-index, at the nodes of the
    bundle's box for the field with their weights, which a derivative
    profile keeps; a GridField's are central differences, axis 0 first.
    A single Gaussian's order-1 samples are polar instead, with weights
    that depend on p (_polar_samples), unless its rule outgrows the box."""
    alphas = multi_indices(field.dimension, order)
    plan = _polar_plan(field, quads) if order == 1 else None
    if plan is not None:
        return _polar_samples(field, alphas, p, plan)
    if not isinstance(field, GridField):
        box = quads.box_for(field)
        return alphas, field.partial_values(box.nodes, order), box.weights
    if order > 2:
        raise ValueError("grid fields support derivative orders 1 and 2 only")
    rows = []
    for alpha in alphas:
        g = field.values
        for axis, reps in enumerate(alpha):
            for _ in range(reps):
                g = np.gradient(g, field.spacing[axis], axis=axis)
        rows.append(g.ravel())
    return alphas, np.stack(rows), np.full(field.values.size, field.cell_volume)


def _polar_plan(field, quads: QuadratureBundle
                ) -> tuple[np.ndarray, float, int] | None:
    """A^(1/2), the condition limit and the sphere rule's resolution for
    the s = 1 samples of a single Gaussian; None for other fields, and
    where the rule would hold more nodes than the field's fitted box,
    which then serves.

    The samples resolve T with cond(T^t A^(1/2)) up to the limit,
    _POLAR_MARGIN cond(A^(1/2)), and the rule puts
    _POLAR_NODES_PER_CONDITION times the limit nodes round a circle: a
    trapezoid rule of that many nodes in 2-D, and in 3-D half as many
    Gauss-Legendre bands with that many azimuths each."""
    if not _single_gaussian(field):
        return None
    eig, vec = np.linalg.eigh(field.terms[0].precision)
    limit = _POLAR_MARGIN * math.sqrt(eig[-1] / eig[0])
    bands = math.ceil(0.5 * _POLAR_NODES_PER_CONDITION * limit)
    if field.dimension == 2:
        resolution, nodes = 2 * bands, 2 * bands
    else:
        resolution, nodes = bands, 2 * bands * bands
    if nodes > math.prod(fitted_axes(field, quads.box_nodes)[1]):
        return None
    return (vec * np.sqrt(eig)) @ vec.T, limit, resolution


def _polar_samples(field: AnalyticField, alphas: list[tuple[int, ...]],
                   p: float, plan: tuple[np.ndarray, float, int]
                   ) -> tuple[list[tuple[int, ...]], np.ndarray, np.ndarray]:
    """Order-1 samples of f = c exp(-(x - mu)^T A (x - mu) / 2) from its
    polar form, exact at every T: with z = A^(1/2) (x - mu) = r theta,
    grad f = -c A^(1/2) z exp(-|z|^2 / 2) and

        int |T^t grad f|^p dx = |c|^p det(A)^(-1/2) R_p(N)
                                int_S |T^t A^(1/2) theta|^p dsigma,
        R_p(N) = int_0^inf r^(p+N-1) exp(-p r^2 / 2) dr
               = (1/2) (2/p)^((p+N)/2) Gamma((p+N)/2).

    The samples are the vectors A^(1/2) theta_j of the plan's sphere rule,
    as gradient rows, with weights |c|^p det(A)^(-1/2) R_p(N) omega_j;
    NumericalFailureError where those overflow."""
    root, _, resolution = plan
    n = field.dimension
    sphere = build_sphere_quadrature(n, resolution)
    vectors = sphere.nodes @ root
    _, log_det = np.linalg.slogdet(field.terms[0].precision)
    radial = 0.5 * (2.0 / p) ** (0.5 * (p + n)) * math.gamma(0.5 * (p + n))
    with np.errstate(over="ignore"):
        weights = (abs(_gaussian_amplitude(field)) ** p
                   * math.exp(-0.5 * log_det) * radial) * sphere.weights
    if not np.all(np.isfinite(weights)):
        raise NumericalFailureError(
            "a single Gaussian's polar weights overflow")
    mat = vectors.T[[alpha.index(1) for alpha in alphas]]
    return alphas, mat, weights


def _derivative_tensor(alphas: list[tuple[int, ...]], mat: np.ndarray,
                       dim: int) -> np.ndarray:
    """Order-1 or order-2 samples as one gradient or one symmetric Hessian
    per point."""
    tensor = np.empty((mat.shape[1],) + (dim,) * sum(alphas[0]))
    for a, row in zip(alphas, mat):
        index = tuple(i for i, reps in enumerate(a) for _ in range(reps))
        tensor[(slice(None),) + index] = row
        tensor[(slice(None),) + index[::-1]] = row
    return tensor


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


def _by_blocks(count: int, per_point: int, kernel):
    """kernel(block) for every point block of range(count) (_point_blocks),
    written into one array allocated up front; a kernel that returns a
    tuple of arrays gives a tuple, each joined along its first axis.  A
    single block's arrays are returned as they are."""
    blocks = _point_blocks(count, per_point)
    if len(blocks) == 1:
        return kernel(blocks[0])
    joined = None
    for block in blocks:
        parts = kernel(block)
        single = isinstance(parts, np.ndarray)
        if single:
            parts = (parts,)
        if joined is None:
            joined = tuple(np.empty((count,) + part.shape[1:], part.dtype)
                           for part in parts)
        for out, part in zip(joined, parts):
            out[block] = part
    return joined[0] if single else joined


class _SampleObjective:
    """T -> |f o T|_{s,p} over determinant-one T, from samples of f taken
    once at T = I: value(T) = (sum_i w_i e_i(T))^(1/p).

    `energies(T)` returns the e_i.  `factors(T)` returns rows a_i, scales
    c_i and rows b_i of the moment S = sum_i w_i c_i a_i b_i^t, whose trace
    is sum_i w_i e_i and whose pairing <S, M> is the derivative of that
    sum along T exp(eps M), divided by p * rate.  Every branch therefore
    has the same exact gradient: rate * power^(1/p - 1) times the
    trace-free part of S.  `trusted(T)` is false where the samples do not
    resolve f o T, and `value` is then not an estimate of |f o T|.

    Memory: besides its samples and weights, a norm-power objective (s = 1
    and fractional s) holds one vector per sample, and the others nothing
    per sample: the order-2 objective builds the Hessians of each block
    from the partials when it needs them.  Below order 3 `energies` and
    `factors` walk the samples in point blocks of about _SWEEP_BLOCK
    values (_by_blocks) and hold one block of work arrays besides their
    per-sample outputs.
    Every per-sample value is elementwise, so it does not depend on the
    blocking; the sums in `value` and `moment` are taken whole.  The
    order >= 3 scan walks the blocks of _direction_blocks, and its
    `factors` contract the partials at every sample at once.
    Per-sample norms are column sums (_row_norms) and the 3-D order-2
    maxima np.maximum chains (_row_maxima).  numpy adds a row of fewer
    than 8 values in the same order, so the bits are those of
    np.linalg.norm(v, axis=1) and .max(axis=1); numpy's reductions over
    that short axis cost 3 to 6 times the arithmetic, e.g. 240 against
    40 microseconds for the 9216 x 2 vectors of the default 2-D box.
    """

    def __init__(self, energies, factors, weights: np.ndarray, p: float,
                 rate: float, dimension: int):
        self.energies, self.factors = energies, factors
        self.weights = weights
        self.p, self.rate = float(p), float(rate)
        self.dimension = dimension
        self.trusted = lambda matrix: True

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


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a P x N array, as column sums: the
    squared columns are added in order and the square root taken in place.
    numpy reduces a row of fewer than 8 values in the same order, so below
    8 columns this is bitwise np.linalg.norm(v, axis=1), overflow and NaN
    included; at 8 and more numpy sums pairwise and the last bits differ.
    Callers pass one column per dimension, and sphere rules exist for
    N = 1 to 3 only."""
    squares = v * v
    norms = squares[:, 0].copy()
    for column in squares.T[1:]:
        norms += column
    return np.sqrt(norms, out=norms)


def _row_maxima(a: np.ndarray) -> np.ndarray:
    """Largest entry of each row of a P x N array, as a np.maximum chain
    over the columns: the values of a.max(axis=1), NaN included, without
    numpy's reduction over a short axis."""
    top = a[:, 0].copy()
    for column in a.T[1:]:
        np.maximum(top, column, out=top)
    return top


def _norm_power_objective(vectors: np.ndarray, weights: np.ndarray, q: float,
                          p: float, inverse: bool = False) -> _SampleObjective:
    """e = |v|^q with v = T^t x, or v = T^{-1} x when `inverse` is set.
    d|v|^q = q |v|^{q-2} <v v^t, M> for v = T^t x and the negative of that
    for v = T^{-1} x, so S = sum w |v|^{q-2} v v^t at rate q/p, or -q/p
    when `inverse` is set."""
    count, dimension = vectors.shape

    def linear_map(matrix):
        return np.linalg.inv(matrix).T if inverse else matrix

    def energies(matrix):
        m = linear_map(matrix)
        return _by_blocks(count, dimension, lambda block: _row_norms(
            vectors[block] @ m) ** q)

    def factors(matrix):
        m = linear_map(matrix)

        def kernel(block):
            v = vectors[block] @ m
            speeds = _row_norms(v)
            if q < 2.0:
                return v, np.where(speeds > 0.0, speeds ** (q - 2.0), 0.0)
            return v, speeds ** (q - 2.0)

        v, scale = _by_blocks(count, dimension, kernel)
        return v, scale, v

    rate = (-q if inverse else q) / p
    return _SampleObjective(energies, factors, weights, p, rate, dimension)


def _top_eigenvalues_2x2(a: np.ndarray, b: np.ndarray, c: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """|lambda| for the top |eigenvalue| lambda of each [[a, b], [b, c]],
    with m = (a + c) / 2 and d = (a - c) / 2.  The eigenvalues are m +- r
    with r = hypot(d, b), so |lambda| = |m| + r, a sum without
    cancellation."""
    m, d = 0.5 * (a + c), 0.5 * (a - c)
    return np.abs(m) + np.hypot(d, b), m, d


def _top_eigenpairs_2x2(a: np.ndarray, b: np.ndarray, c: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
    """|lambda| and a unit eigenvector of lambda for each [[a, b], [b, c]].
    With theta = atan2(b, d) / 2 the matrix is m I + r times the reflection
    across (cos theta, sin theta), so lambda = m + r has that eigenvector
    where m > 0 and lambda = m - r has (-sin theta, cos theta) otherwise:
    at m = 0 the negative one, as eigh's ascending order and argmax's first
    index choose."""
    top, m, d = _top_eigenvalues_2x2(a, b, c)
    theta = 0.5 * np.arctan2(b, d)
    cos, sin = np.cos(theta), np.sin(theta)
    positive = m > 0.0
    v = np.stack([np.where(positive, cos, -sin), np.where(positive, sin, cos)],
                 axis=1)
    return top, v


def _hessian_objective(alphas: list[tuple[int, ...]], mat: np.ndarray,
                       weights: np.ndarray, p: float) -> _SampleObjective:
    """e = |lambda|^p for the top |eigenvalue| lambda of T^t H T.  With v
    its unit eigenvector, d|lambda| = 2 |lambda| <v v^t, M>, so
    S = sum w |lambda|^p v v^t at rate 2.  At a tie any vector of the top
    eigenspace gives a valid subgradient.  In 2-D the entries of T^t H T
    are a linear map of the packed rows and the eigenpair a closed form;
    from 3-D on each sample's T^t H T goes through eigh, on the Hessians
    of one block at a time."""
    n, count = len(alphas[0]), mat.shape[1]
    if n == 2:
        def congruence(matrix):
            """The 3 x 3 map from the packed rows to the entries a, b, c of
            T^t H T = [[a, b], [b, c]] at every sample: with u = T e_0 and
            v = T e_1, a = H[u, u], b = H[u, v] and c = H[v, v].
            multi_indices(2, 2) packs the rows as (0, 2), (1, 1), (2, 0),
            so mat is H11, H01, H00 in that order."""
            (u0, v0), (u1, v1) = matrix
            return np.array([[u1 * u1, 2.0 * u0 * u1, u0 * u0],
                             [u1 * v1, u0 * v1 + u1 * v0, u0 * v0],
                             [v1 * v1, 2.0 * v0 * v1, v0 * v0]])

        def energies(matrix):
            c = congruence(matrix)
            return _by_blocks(count, 3, lambda block: _top_eigenvalues_2x2(
                *(c @ mat[:, block]))[0] ** p)

        def factors(matrix):
            c = congruence(matrix)

            def kernel(block):
                top, v = _top_eigenpairs_2x2(*(c @ mat[:, block]))
                return v, top ** p

            v, scale = _by_blocks(count, 3, kernel)
            return v, scale, v

        return _SampleObjective(energies, factors, weights, p, 2.0, n)

    def congruent(matrix, block):
        return matrix.T @ _derivative_tensor(alphas, mat[:, block], n) @ matrix

    def energies(matrix):
        return _by_blocks(count, n * n, lambda block: _row_maxima(np.abs(
            np.linalg.eigvalsh(congruent(matrix, block)))) ** p)

    def factors(matrix):
        def kernel(block):
            lam, vecs = np.linalg.eigh(congruent(matrix, block))
            top = np.abs(lam).argmax(axis=1)
            v = np.take_along_axis(vecs, top[:, None, None], axis=2)[:, :, 0]
            lam = np.take_along_axis(lam, top[:, None], axis=1)[:, 0]
            return v, np.abs(lam) ** p

        v, scale = _by_blocks(count, n * n, kernel)
        return v, scale, v

    return _SampleObjective(energies, factors, weights, p, 2.0, n)


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
        the blocks of _direction_blocks."""
        W = directional_weight_matrix(directions @ matrix.T, alphas)
        h = np.empty(n_pts)
        top = np.empty(n_pts, dtype=np.intp)
        for points, values in _direction_blocks(W, mat):
            top[points] = np.abs(values).argmax(axis=0)
            h[points] = np.take_along_axis(values, top[None, points],
                                           axis=0)[0]
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
    """The objective T -> |f o T|_{s,p} on samples of f taken at T = I, or
    on those of `profile` when given; at integer s none is built here.
    With det T = 1 changes of variables keep those samples valid at every T:

    - s = 1: the integral of |T^t grad f(Tx)|^p equals that of
      |T^t grad f|^p over the original box, and for a single Gaussian a
      sphere integral of |T^t A^(1/2) theta|^p (_polar_samples), which the
      objective trusts while cond(T^t A^(1/2)) stays within the rule's
      limit (_polar_plan);
    - fractional s: |f o T|_{s,p}^p = int_S |T^{-1} eta|^{-(N+sp)}
      D(f, eta) dsigma(eta), so one directional profile of f suffices;
    - integer s >= 2: the s-th derivative of f o T along xi is that of f
      along T xi, applied to the order-s partials of f on the original box.
    """
    n = field.dimension
    if params.fractional:
        profile = _profile_for(field, params, quads, profile)
        sphere = profile.sphere

        def resolved(matrix):
            pulled = sphere.nodes @ np.linalg.inv(matrix).T
            jacobian = sphere.weights @ _row_norms(pulled) ** -n
            return abs(jacobian / sphere.area - 1.0) <= _PUSHFORWARD_TOL

        ctx = _norm_power_objective(
            sphere.nodes, sphere.weights * profile.values,
            -(n + params.s * params.p), params.p, inverse=True)
        ctx.trusted = resolved
        return ctx
    order = _integer_order(params)
    samples = (_derivative_samples(field, order, quads, params.p)
               if profile is None
               else _profile_for(field, params, quads, profile).samples)
    if samples is None:
        raise ValueError("profile keeps no derivative samples")
    alphas, mat, weights = samples
    if order == 1:
        ctx = _norm_power_objective(_derivative_tensor(alphas, mat, n),
                                    weights, params.p, params.p)
        plan = _polar_plan(field, quads)
        if plan is not None:
            root, limit, _ = plan
            ctx.trusted = (lambda matrix:
                           np.linalg.cond(matrix.T @ root) <= limit)
        return ctx
    if order == 2:
        return _hessian_objective(alphas, mat, weights, params.p)
    # the scan has about four times the sphere's nodes; a 3-D rule with
    # resolution r has 2 r^2 of them
    count = 4 * max(quads.sphere.nodes.shape[0], 64)
    resolution = count if n == 2 else math.ceil(math.sqrt(count / 2))
    directions = build_sphere_quadrature(n, resolution).nodes
    return _scan_objective(alphas, mat, weights, params.p, directions)


def seminorm(field, params: SmoothnessParams, quads: QuadratureBundle, *,
             profile: DirectionalEnergyProfile | None = None) -> float:
    """The homogeneous semi-norm |f|_{s,p} (difference or derivative branch).

    On the derivative branch it is the optimizer's objective at T = I, on
    the profile's samples when a profile is given.
    """
    if params.fractional:
        profile = _profile_for(field, params, quads, profile)
        return profile.integrate() ** (1.0 / params.p)

    _warn_if_excluded(params)
    value = _sample_objective(field, params, quads, profile=profile).value(
        np.eye(field.dimension))
    if not np.isfinite(value):
        raise NumericalFailureError("non-finite derivative-norm integral")
    return value


def starred_seminorm(field, s: float, p: float, quads: QuadratureBundle, *,
                     profile: DirectionalEnergyProfile | None = None) -> float:
    """Sphere-integrated variant for integer s: (int_S D(f,xi) dsigma)^(1/p)."""
    params = SmoothnessParams(float(s), p)
    if params.fractional:
        raise ValueError("starred variant is defined for integer s")
    return _profile_for(field, params, quads, profile).integrate() ** (1.0 / p)


def slice_seminorm_crosscheck(field: AnalyticField, params: SmoothnessParams,
                              axis: int, quads: QuadratureBundle
                              ) -> tuple[float, float]:
    """Two routes to the same axis energy (Remark 2.10).

    lhs: the directional energy along e_axis on `quads`.  rhs: the
    transverse integral of the energies of the 1-D restrictions along +1,
    on a 1-D bundle of the same tier and radial rule, so both sides take
    the engines of _direction_energies.  On the difference branch both are
    doubled: S^0 = {+1, -1} makes a 1-D semi-norm power twice the one-sided
    energy.  The two agree analytically; the residual measures quadrature
    consistency.
    """
    dim = field.dimension
    if not 0 <= axis < dim:
        raise ValueError("axis out of range")
    if dim != 2:
        raise ValueError("cross-check is implemented for two dimensions")
    e = np.zeros(dim)
    e[axis] = 1.0
    lhs = directional_energy(field, params, e, quads)

    line = QuadratureBundle(
        1, 4, round(quads.box_nodes * _DEFAULT_NODES[1] / _DEFAULT_NODES[2]),
        quads.radial_spec)
    other_pts, other_wts = gauss_legendre_nodes(BOX_HALF_WIDTH,
                                                _SLICE_TRANSVERSE_NODES)
    rhs = 0.0
    for u, w in zip(other_pts, other_wts):
        piece = field.restrict(axis=axis, fixed=np.array([u]))
        rhs += w * directional_energy(piece, params, np.ones(1), line)
    scale = 2.0 if params.fractional else 1.0
    return scale * lhs, scale * float(rhs)


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
    values, _, _ = _direction_energies(field, params, basis, quads)
    total = sum(float(v) ** (1.0 / params.p) for v in values)
    value = seminorm(field, params, quads)
    return total / dim, value, total


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
