"""Exact test fields: Gaussian-polynomial sums and sampled grid fields.

The analytic class (sums of c * q(x) * exp(-(x-mu)^T A (x-mu)/2) with q a
polynomial and A symmetric positive definite) is closed under partial and
directional differentiation, finite differences, and affine composition,
so every pointwise quantity the energy pipeline needs can be evaluated
without discretization error.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "SingularTransformError",
    "NumericalFailureError",
    "Polynomial",
    "GaussianTerm",
    "AnalyticField",
    "GridField",
    "SmoothnessParams",
    "multi_indices",
    "multinomial_coefficient",
]


class DimensionMismatchError(ValueError):
    """Point or matrix shape does not match the field dimension."""


class SingularTransformError(ValueError):
    """Composition matrix is singular or numerically unusable."""


class NumericalFailureError(RuntimeError):
    """A numeric pipeline produced non-finite intermediate values."""


def _as_matrix(x: np.ndarray, dimension: int) -> tuple[np.ndarray, bool]:
    """Coerce a point or point batch to shape (P, N)."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        if arr.shape[0] != dimension:
            raise DimensionMismatchError(
                f"point has dimension {arr.shape[0]}, field has {dimension}")
        return arr[None, :], True
    if arr.ndim != 2 or arr.shape[1] != dimension:
        raise DimensionMismatchError(
            f"expected points of shape (P, {dimension}), got {arr.shape}")
    return arr, False


def _monomial_values(exponents: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row r = prod_j x_j^exponents[r, j] at the points x, shape (N, P).
    The powers x_j^0 .. x_j^max of each axis come from one table built by
    multiplication."""
    values = np.ones((exponents.shape[0], x.shape[1]))
    for axis, column in enumerate(exponents.T):
        if not column.any():
            continue
        table = np.empty((column.max() + 1, x.shape[1]))
        table[0] = 1.0
        for e in range(1, table.shape[0]):
            np.multiply(table[e - 1], x[axis], out=table[e])
        values *= table[column]
    return values


class Polynomial:
    """Sparse multivariate polynomial: one exponent row per monomial.

    Rows are distinct and sorted, and zero coefficients are never stored;
    the zero polynomial has no rows.
    """

    __slots__ = ("dimension", "exponents", "coefficients")

    def __init__(self, dimension: int, coeffs: Mapping[tuple, float] | Iterable):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        rows, values = [], []
        for exp, c in items:
            exp = tuple(int(e) for e in exp)
            if len(exp) != dimension:
                raise DimensionMismatchError(
                    f"exponent {exp} does not match dimension {dimension}")
            if any(e < 0 for e in exp):
                raise ValueError(f"negative exponent in {exp}")
            rows.append(exp)
            values.append(float(c))
        merged = Polynomial._from_arrays(dimension, np.array(rows, dtype=np.int64),
                                         np.array(values, dtype=float))
        self.dimension = dimension
        self.exponents, self.coefficients = merged.exponents, merged.coefficients

    @classmethod
    def _from_arrays(cls, dimension: int, exponents: np.ndarray,
                     coefficients: np.ndarray) -> "Polynomial":
        """Unchecked constructor for the rows that arithmetic produces: the
        coefficients of equal rows are summed in row order, the rows are
        sorted and zero sums are dropped."""
        exponents = exponents.reshape(-1, dimension)
        # row-major keys order the rows lexicographically
        keys = np.ravel_multi_index(exponents.T, exponents.max(axis=0, initial=0) + 1)
        _, first, group = np.unique(keys, return_index=True, return_inverse=True)
        sums = np.bincount(group, weights=coefficients, minlength=first.shape[0])
        keep = sums != 0.0
        poly = cls.__new__(cls)
        poly.dimension = dimension
        poly.exponents, poly.coefficients = exponents[first[keep]], sums[keep]
        return poly

    @classmethod
    def constant(cls, dimension: int, value: float) -> "Polynomial":
        return cls(dimension, {(0,) * dimension: value})

    @property
    def is_zero(self) -> bool:
        return self.coefficients.size == 0

    @property
    def degree(self) -> int:
        if self.is_zero:
            return 0
        return int(self.exponents.sum(axis=1).max())

    def items(self):
        for exp, c in zip(self.exponents, self.coefficients):
            yield tuple(int(e) for e in exp), float(c)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        pts, single = _as_matrix(x, self.dimension)
        out = self.coefficients @ _monomial_values(self.exponents, pts.T)
        return out[0] if single else out

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial._from_arrays(
            self.dimension, np.vstack([self.exponents, other.exponents]),
            np.concatenate([self.coefficients, other.coefficients]))

    def scaled(self, factor: float) -> "Polynomial":
        return Polynomial._from_arrays(self.dimension, self.exponents,
                                       self.coefficients * factor)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        exponents = self.exponents[:, None, :] + other.exponents[None, :, :]
        return Polynomial._from_arrays(
            self.dimension, exponents,
            np.outer(self.coefficients, other.coefficients).ravel())

    def compose_linear(self, matrix: np.ndarray) -> "Polynomial":
        """Return q(Mx) by expanding each coordinate substitution."""
        matrix = np.asarray(matrix, dtype=float)
        n = self.dimension
        # linear forms l_i(x) = sum_j M[i, j] x_j
        linears = [Polynomial._from_arrays(n, np.eye(n, dtype=np.int64), row)
                   for row in matrix]
        out = Polynomial(n, {})
        for exp, c in zip(self.exponents, self.coefficients):
            term = Polynomial.constant(n, c)
            for i, e in enumerate(exp):
                for _ in range(e):
                    term = term * linears[i]
            out = out + term
        return out


# (step, node) pairs per block of the fused difference sweep: the block's
# |Delta|^p array holds about this many doubles and stays in cache; the
# shifted lines are evaluated half a block of pairs at a time, so each of
# their work arrays holds half a block per line evaluated
_SWEEP_BLOCK = 65536
# contiguous step groups of the difference sweep; each group sweeps only
# the nodes whose bounded contribution can reach its rows' sums
_SWEEP_GROUPS = 3
# a dropped node's contribution to a row may reach this share of the row's
# sum; a row whose dropped nodes' bound exceeds it sweeps them too
_DROP_TOLERANCE = 2.0 ** -52
# what the dropped nodes of a group may add up to, as a share of its bound
# totals; the totals overestimate the row sums, so it is set lower
_DROP_SHARE = 2.0 ** -58


def _point_blocks(count: int, per_point: int) -> list[slice]:
    """Consecutive slices of range(count) that each hold about _SWEEP_BLOCK
    values at `per_point` values per point, and at least two points unless
    count is 1: numpy multiplies a one-column matrix by another BLAS routine
    (gemv), whose last bits differ, so a one-point tail joins the block
    before it.  The walk serves elementwise work only: a sum split at the
    block edges would move its last bits."""
    size = max(2, _SWEEP_BLOCK // max(per_point, 1))
    starts = list(range(0, count, size))
    if len(starts) > 1 and count - starts[-1] == 1:
        starts.pop()
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [count])]


def _line_buffers(terms: list[tuple], shape: tuple[int, int]
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Work arrays (expo, vals, poly) for _sum_lines; poly, None where
    unneeded, serves only a term after the first with a polynomial factor."""
    poly = any(rows.shape[0] > 1 for *_, rows in terms[1:])
    return np.empty(shape), np.empty(shape), np.empty(shape) if poly else None


def _sum_lines(terms: list[tuple], taus: np.ndarray,
               buffers: tuple) -> np.ndarray:
    """Array of [k, j] = sum of the terms' values at x_j + taus[k] xi.

    `terms` comes from AnalyticField._line_terms and `buffers` from
    _line_buffers, with at least len(taus) rows; the result is the leading
    rows of vals, overwritten by the next call.  Every value is computed
    elementwise, so it does not depend on how the steps are split into
    pieces.
    """
    expo, vals, poly = (buf if buf is None else buf[:taus.shape[0]]
                        for buf in buffers)
    if not terms:
        vals.fill(0.0)
        return vals
    for i, (neg_half_a, b, half_c, rows) in enumerate(terms):
        np.multiply(taus[:, None], b, out=expo)
        np.subtract(neg_half_a, expo, out=expo)
        expo -= (half_c * taus ** 2)[:, None]
        np.exp(expo, out=expo)
        if rows.shape[0] == 1:
            # a term without a polynomial factor starts the sum in vals, or
            # scales its exp in place to be added to it
            target = vals if i == 0 else expo
            np.multiply(expo, rows[0], out=target)
        else:
            # Horner's rule in tau for the polynomial factor
            target = vals if i == 0 else poly
            np.multiply(taus[:, None], rows[-1], out=target)
            for row in rows[-2:0:-1]:
                target += row
                target *= taus[:, None]
            target += rows[0]
            target *= expo
        if i > 0:
            vals += target
    return vals


def difference_stencil(order: int) -> list[tuple[float, float]]:
    """(offset, coefficient) pairs of Delta^order_t f(x) = sum_l coefficient_l
    f(x + offset_l t xi), centered: offset l - order/2 and coefficient
    C(order, l) (-1)^(order - l) for l = 0 .. order."""
    return [(l - order / 2.0, math.comb(order, l) * (-1.0) ** (order - l))
            for l in range(order + 1)]


def _abs_power(x: np.ndarray, p: float, work: np.ndarray) -> None:
    """x <- |x|^p in place; p in {1, 2, 3, 4} by multiplication."""
    if p == 2.0:
        np.multiply(x, x, out=x)
    elif p == 4.0:
        np.multiply(x, x, out=x)
        np.multiply(x, x, out=x)
    else:
        np.abs(x, out=x)
        if p == 3.0:
            np.multiply(x, x, out=work)
            x *= work
        elif p != 1.0:
            np.power(x, p, out=x)


def _sweep(terms: list[tuple], steps: np.ndarray, shifts: list[tuple],
           middle_line: np.ndarray | None, p: float,
           weights: np.ndarray) -> np.ndarray:
    """sum_j weights[j] |sum_l coeff_l f(x_j + offset_l t xi)|^p for every
    step t, over the nodes x_j that `terms` (from _line_terms) describe.

    One cache-blocked pass: the steps are taken in blocks of about
    _SWEEP_BLOCK (step, node) pairs, and each block's |Delta|^p is reduced
    against the weights by one matrix product.  The row count of a block
    decides how the product groups its sums, so it is kept at
    _SWEEP_BLOCK // P.  A block's rows are filled in pieces of about half
    as many pairs: one _sum_lines call evaluates every shifted line of a
    piece, and the difference is formed, in the order of the shifts, and
    raised to the p-th power in place.  At even order >= 2 the middle shift
    has offset 0, so its line is f on the nodes at every t: `middle_line`
    holds it times its coefficient and is added to every piece.

    The weights are positive, so a non-finite difference value gives a
    non-finite reduced row, and then NumericalFailureError is raised.
    Memory: the |Delta|^p block and up to three work arrays of (lines
    evaluated) x piece rows each, that is one block each at orders 1 and 2
    (two lines) and two blocks each at orders 3 and 4 (four lines).
    """
    K, P = steps.shape[0], weights.shape[0]
    middle = None if middle_line is None else (len(shifts) - 1) // 2
    offsets = np.array([offset for l, (offset, _) in enumerate(shifts)
                        if l != middle])
    block = max(1, min(K, _SWEEP_BLOCK // max(P, 1)))
    piece = max(1, min(block, _SWEEP_BLOCK // max(2 * P, 1)))
    buffers = _line_buffers(terms, (offsets.shape[0] * piece, P))
    delta = np.empty((block, P))
    out = np.empty(K)
    for lo in range(0, K, block):
        n = min(block, K - lo)
        for start in range(0, n, piece):
            taus = steps[lo + start:lo + min(start + piece, n)]
            k = taus.shape[0]
            rows = delta[start:start + k]
            vals = _sum_lines(terms, np.outer(offsets, taus).ravel(), buffers)
            first = 0
            for l, (offset, coeff) in enumerate(shifts):
                if l == middle:
                    rows += middle_line
                    continue
                line = vals[first:first + k]
                first += k
                if l == 0:
                    np.multiply(line, coeff, out=rows)
                else:
                    if coeff != 1.0:
                        line *= coeff
                    rows += line
            _abs_power(rows, p, buffers[0][:k])
        reduced = np.matmul(delta[:n], weights, out=out[lo:lo + n])
        if not np.isfinite(reduced).all():
            raise NumericalFailureError("non-finite difference values")
    return out


def _derivative_rows(rows: np.ndarray, b: np.ndarray, half_c: float,
                     order: int) -> np.ndarray:
    """Rows of Q with d^order/dtau^order [exp(E(tau)) P(tau)] =
    exp(E(tau)) Q(tau), where P has the Taylor rows `rows` and
    E'(tau) = -b - c tau: order steps of Q <- Q' - (b + c tau) Q."""
    q = rows
    for _ in range(order):
        n = q.shape[0]
        step = np.empty((n + 1, q.shape[1]))
        np.multiply(q, -b, out=step[:n])
        step[n] = 0.0
        step[1:] -= (2.0 * half_c) * q
        step[:n - 1] += np.arange(1.0, n)[:, None] * q[1:]
        q = step
    return q


def _taylor_shift(rows: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Rows of P(shift + u) in powers of u from the rows of P(tau) in powers
    of tau, one shift per column (repeated synthetic division)."""
    out = rows.copy()
    for k in range(rows.shape[0] - 1):
        for j in range(rows.shape[0] - 2, k - 1, -1):
            out[j] += shift * out[j + 1]
    return out


def _group_bounds(terms: list[tuple], reach: np.ndarray,
                  order: int) -> np.ndarray:
    """Per step group g and node x_j, two bounds on the centered difference
    at the group's steps t, those with order * |t| / 2 <= reach[g], in one
    array of shape (2, G, P):

    [0, g, j] >= 2^order sup |f(x_j + sigma xi)| and
    [1, g, j] >= sup |d_xi^order f(x_j + sigma xi)|, both over the segment
    |sigma| <= reach[g].

    Every shifted point of Delta^order_{t xi} f(x_j) lies on the segment
    and the coefficients' sizes add up to 2^order, so |Delta| <= [0, g, j];
    and Delta is t^order times a B-spline average of d_xi^order f over the
    segment, so |Delta| <= |t|^order [1, g, j].

    Along a line each term is exp(E(tau)) times a polynomial with the
    Taylor rows of _line_terms, and the terms' bounds add up.  For c > 0,
    E(tau) = E(v) - (tau - v)^2 c/2 about its vertex v, so over the segment
    exp(E) is largest at the point nearest to v, a gap d = max(|v| -
    reach, 0) away; otherwise at an end.  c = xi^T A xi is positive for a
    positive definite A, but for a precision near the floor of
    GaussianTerm.validate rounding can take it to 0 or below.  A polynomial
    is at most sum_k |row_k| reach^k on the segment, and the derivative's
    rows come from _derivative_rows.  For f with c > 0 the rows are taken
    in powers of u = tau - v instead (_taylor_shift), because about the
    node the rows of a node far from the peak cancel there; |u|^k
    exp(-u^2 c/2) rises to its largest value at |u| = sqrt(k / c) and falls
    beyond it, so over the segment it is at most d^k exp(-d^2 c/2) when d
    is beyond that point, and that largest value otherwise.
    """
    rho = reach[:, None]
    bounds = np.zeros((2, rho.shape[0], terms[0][0].shape[0]))
    for neg_half_a, b, half_c, rows in terms:
        if half_c > 0.0:
            vertex = b * (-0.5 / half_c)
            peak = np.exp(neg_half_a - vertex * (b + half_c * vertex))
            gap = np.maximum(np.abs(vertex) - rho, 0.0)
            fall = np.exp(-half_c * gap * gap)
            envelope = peak * fall
            if rows.shape[0] == 1:
                bounds[0] += np.abs(rows[0]) * envelope
            else:
                line = np.abs(_taylor_shift(rows, vertex))
                bound = line[0] * fall
                for k in range(1, rows.shape[0]):
                    top = math.sqrt(0.5 * k / half_c)
                    bound += line[k] * np.where(
                        gap >= top, gap ** k * fall,
                        top ** k * math.exp(-0.5 * k))
                bounds[0] += peak * bound
        else:
            envelope = np.exp(neg_half_a + rho * np.abs(b) - half_c * rho * rho)
            bound = np.abs(rows[-1])
            for row in rows[-2::-1]:
                bound = bound * rho + np.abs(row)
            bounds[0] += envelope * bound
        derivative = np.abs(_derivative_rows(rows, b, half_c, order))
        bounds[1] += envelope * (rho ** np.arange(derivative.shape[0])
                                 @ derivative)
    bounds[0] *= 2.0 ** order
    return bounds


def _drop_plan(terms: list[tuple], lows: np.ndarray, highs: np.ndarray,
               order: int, p: float, weights: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Nodes each step group [lows[g], highs[g]] may skip: (drop,
    large_sum, small_sum), or None when a bound is not finite.

    With the bounds of _group_bounds, a node's weighted bound at step t of
    a group is min(large, t^(mp) small), where large = w bounds[0]^p and
    small = w bounds[1]^p.  A node is dropped when large is at most
    _DROP_SHARE / P of the group's bound total at its lowest step, and is
    then charged to large_sum; and when t^(mp) small is at most that share
    of the total at its highest step, and is then charged to small_sum (a
    node can be charged to both).  For a step t of the group the dropped
    nodes contribute at most large_sum + t^(mp) small_sum to its row.

    The bounds are built in chunks of about _SWEEP_BLOCK / 4 (group, node)
    pairs, so that their work arrays take about one sweep block; the
    weighted bounds themselves are one (2 x groups) x P array.
    """
    reach = 0.5 * order * highs
    low, high = (lows ** (order * p))[:, None], (highs ** (order * p))[:, None]
    bounds = np.empty((2, lows.shape[0], weights.shape[0]))
    low_total, high_total = np.zeros(lows.shape[0]), np.zeros(lows.shape[0])
    size = max(1, _SWEEP_BLOCK // (4 * lows.shape[0]))
    for lo in range(0, weights.shape[0], size):
        part = slice(lo, lo + size)
        chunk = _group_bounds([(neg_half_a[part], b[part], half_c, rows[:, part])
                               for neg_half_a, b, half_c, rows in terms],
                              reach, order)
        _abs_power(chunk, p, np.empty_like(chunk))
        chunk *= weights[part]
        if not math.isfinite(chunk.sum()):
            return None
        bounds[:, :, part] = chunk
        low_total += np.minimum(chunk[0], low * chunk[1]).sum(axis=1)
        high_total += np.minimum(chunk[0], high * chunk[1]).sum(axis=1)
    large, small = bounds
    share = _DROP_SHARE / weights.shape[0]
    charged_large = large <= (share * low_total)[:, None]
    charged_small = small <= share * high_total[:, None] / high
    return (charged_large | charged_small,
            np.add.reduce(large, axis=1, where=charged_large),
            np.add.reduce(small, axis=1, where=charged_small))


def _step_groups(count: int) -> list[np.ndarray]:
    """Contiguous groups of step indices: the last _SWEEP_GROUPS - 1 groups
    take an eighth of the steps each and the first the rest.  With steps in
    increasing order (the radial rule's) the narrow groups hold the large
    steps, where the bounds over a group's span are least tight."""
    size = -(-count // 8)
    edges = [0] + [max(0, count - size * k) for k in range(_SWEEP_GROUPS - 1, 0, -1)]
    return [np.arange(lo, hi) for lo, hi in zip(edges, edges[1:] + [count])
            if hi > lo]


@dataclass(frozen=True)
class GaussianTerm:
    """One summand c * q(x) * exp(-(x-mean)^T precision (x-mean) / 2)."""

    coefficient: float
    polynomial: Polynomial
    mean: np.ndarray
    precision: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "precision", np.asarray(self.precision, dtype=float))

    def validate(self) -> None:
        n = self.mean.shape[0]
        if self.precision.shape != (n, n):
            raise DimensionMismatchError("precision shape does not match mean")
        if not np.allclose(self.precision, self.precision.T, atol=1e-12):
            raise ValueError("precision matrix must be symmetric")
        eigs = np.linalg.eigvalsh(self.precision)
        # below n * eps * (largest eigenvalue) the smallest one is rounding
        # noise, and the matrix is not numerically positive definite
        if eigs.min() < max(1e-14, n * np.finfo(float).eps * eigs.max()):
            raise ValueError("precision matrix must be positive definite; "
                             f"eigenvalues {eigs}")


def _polynomial_partials(poly: Polynomial, x: np.ndarray, order: int
                         ) -> dict[tuple[int, ...], np.ndarray]:
    """d^beta q at the points x, shape (N, P), for every |beta| <= order
    that does not annihilate q, keyed by beta.

    d^beta x^e = e!/(e - beta)! x^(e - beta), so each d^beta q is a row of
    coefficients on the monomials below q's exponents.  Those are valued
    once, and one matrix product gives every d^beta q.
    """
    n, exponents = poly.dimension, poly.exponents
    betas, rows, coefficients = [], [], []
    for level in range(min(order, poly.degree) + 1):
        for beta in multi_indices(n, level):
            keep = (exponents >= beta).all(axis=1)
            if not keep.any():
                continue
            falling = poly.coefficients[keep]
            for axis, b in enumerate(beta):
                for k in range(b):
                    falling = falling * (exponents[keep, axis] - k)
            betas.append(beta)
            rows.append(exponents[keep] - beta)
            coefficients.append(falling)
    if not betas:
        # the zero polynomial
        return {(0,) * n: np.zeros(x.shape[1])}
    sizes = tuple(exponents.max(axis=0) + 1)
    keys, where = np.unique(np.ravel_multi_index(np.vstack(rows).T, sizes),
                            return_inverse=True)
    values = _monomial_values(np.stack(np.unravel_index(keys, sizes), axis=1), x)
    matrix = np.zeros((len(betas), keys.shape[0]))
    matrix[np.repeat(np.arange(len(betas)), [c.shape[0] for c in coefficients]),
           where] = np.concatenate(coefficients)
    return dict(zip(betas, matrix @ values))


def _taylor_rows(term: GaussianTerm, x: np.ndarray, directions: np.ndarray,
                 units: np.ndarray) -> np.ndarray:
    """Taylor rows c units^(-j) (d_xi^j q) / j! of the term's polynomial
    factor along each direction xi, for j = 0 .. degree: shape
    (directions, degree + 1, n).  The points x have shape (N, directions *
    n), and direction d takes the n columns from d * n on; units holds one
    length per direction.  Every partial of q comes from one
    _polynomial_partials call over all the points, and
    d_xi^j q / j! = sum_{|beta| = j} xi^beta / beta! d^beta q."""
    poly = term.polynomial
    count = x.shape[1] // directions.shape[0]
    out = np.zeros((directions.shape[0], poly.degree + 1, count))
    for beta, values in _polynomial_partials(poly, x, poly.degree).items():
        j = sum(beta)
        weight = (term.coefficient * np.prod(directions ** np.array(beta),
                                             axis=1)
                  / (math.prod(map(math.factorial, beta)) * units ** j))
        out[:, j] += weight[:, None] * values.reshape(-1, count)
    return out


def _hermite_factors(u: np.ndarray, precision: np.ndarray, order: int,
                     lowest: int) -> dict[tuple[int, ...], np.ndarray | float]:
    """H_gamma = d^gamma exp(-Q/2) / exp(-Q/2) for lowest <= |gamma| <= order,
    keyed by gamma, with u = A (x - mu) of shape (N, P).

    H_0 = 1 and H_{gamma + e_j} = -u_j H_gamma - sum_i gamma_i A_ji
    H_{gamma - e_i}, taking j as the last axis of gamma + e_j: the
    coefficients of h^gamma / gamma! in exp(-u.h - h^t A h / 2) =
    exp(-Q(x + h)/2) / exp(-Q(x)/2) satisfy it.  Each level needs the two
    below it, so only those and the requested ones are kept.
    """
    n = u.shape[0]
    below, current = {}, {(0,) * n: 1.0}
    kept = dict(current) if lowest <= 0 else {}
    for level in range(1, order + 1):
        step = {}
        for target in multi_indices(n, level):
            j = max(i for i, a in enumerate(target) if a)
            gamma = target[:j] + (target[j] - 1,) + target[j + 1:]
            h = -u[j] * current[gamma]
            for i, g in enumerate(gamma):
                if g:
                    lower = gamma[:i] + (g - 1,) + gamma[i + 1:]
                    h -= g * precision[j, i] * below[lower]
            step[target] = h
        below, current = current, step
        if level >= lowest:
            kept.update(step)
    return kept


def _add_term_partials(out: np.ndarray, pts: np.ndarray, term: GaussianTerm,
                       alphas: list[tuple[int, ...]],
                       polynomial: dict[tuple[int, ...], np.ndarray]) -> None:
    """Add c d^alpha (q E) of the term at the points pts to out, one row per
    alpha, from the d^beta q at those points (_polynomial_partials)."""
    order = sum(alphas[0])
    # one contiguous row per coordinate
    d = np.ascontiguousarray(pts.T) - term.mean[:, None]
    u = term.precision @ d
    envelope = np.exp(-0.5 * np.einsum("ip,ip->p", u, d))
    envelope *= term.coefficient
    # c E d^beta q, for every beta that does not annihilate q
    scaled = {beta: dq * envelope for beta, dq in polynomial.items()}
    lowest = order - max(sum(beta) for beta in scaled)
    hermite = _hermite_factors(u, term.precision, order, lowest)
    for row, alpha in zip(out, alphas):
        for beta, dq in scaled.items():
            gamma = tuple(a - b for a, b in zip(alpha, beta))
            if min(gamma) >= 0:
                weight = math.prod(map(math.comb, alpha, beta))
                row += weight * hermite[gamma] * dq


class AnalyticField:
    """Finite sum of Gaussian-polynomial terms on R^N."""

    def __init__(self, dimension: int, terms: Sequence[GaussianTerm]):
        self.dimension = int(dimension)
        self.terms = tuple(terms)
        for t in self.terms:
            if t.mean.shape[0] != self.dimension:
                raise DimensionMismatchError("term dimension mismatch")
            if t.polynomial.dimension != self.dimension:
                raise DimensionMismatchError("polynomial dimension mismatch")
            t.validate()

    # -- constructors ------------------------------------------------------

    @classmethod
    def gaussian(cls, dimension: int, precision=None, mean=None,
                 coefficient: float = 1.0, poly: Polynomial | None = None
                 ) -> "AnalyticField":
        precision = np.eye(dimension) if precision is None else np.asarray(precision, float)
        mean = np.zeros(dimension) if mean is None else np.asarray(mean, float)
        poly = Polynomial.constant(dimension, 1.0) if poly is None else poly
        return cls(dimension,
                   [GaussianTerm(coefficient, poly, mean, precision)])

    def __add__(self, other: "AnalyticField") -> "AnalyticField":
        if other.dimension != self.dimension:
            raise DimensionMismatchError("cannot add fields of different dimension")
        return AnalyticField(self.dimension, self.terms + other.terms)

    def scaled(self, factor: float) -> "AnalyticField":
        terms = [GaussianTerm(t.coefficient * factor, t.polynomial, t.mean, t.precision)
                 for t in self.terms]
        return AnalyticField(self.dimension, terms)

    # -- evaluation --------------------------------------------------------

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        pts, single = _as_matrix(x, self.dimension)
        out = self.partial_values(pts, 0)[0]
        return out[0] if single else out

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.evaluate(x)

    def _line_terms(self, pts: np.ndarray, xi: np.ndarray) -> list[tuple]:
        """Per-term coefficients of the lines tau -> f(x + tau xi), x in pts.

        The Gaussian exponent along a line is -a/2 - tau b - tau^2 c/2 and
        the polynomial factor is the Taylor expansion
        q(x + tau xi) = sum_k tau^k (d_xi^k q)(x) / k!, whose rows are
        evaluated on the points once (_taylor_rows).  Each entry is
        (-a/2, b, c/2, coefficient times the Taylor rows, shape (D+1, P)).
        """
        terms = []
        for t in self.terms:
            d = pts - t.mean
            a = np.einsum("pi,ij,pj->p", d, t.precision, d)
            w = t.precision @ xi
            b = d @ w
            c = float(xi @ w)
            terms.append((-0.5 * a, b, 0.5 * c,
                          _taylor_rows(t, pts.T, xi[None, :], np.ones(1))[0]))
        return terms

    def line_values(self, points: np.ndarray, xi: np.ndarray,
                    taus: np.ndarray) -> np.ndarray:
        """Evaluate f(points + tau * xi) for every tau, shape (K, P).

        The Gaussian exponent along the line is quadratic in tau and the
        polynomial factor is a tau-polynomial with coefficient functions
        precomputed on the points, so each term costs one exp per
        (tau, point) pair.
        """
        pts, _ = _as_matrix(points, self.dimension)
        terms = self._line_terms(pts, np.asarray(xi, dtype=float))
        taus = np.asarray(taus, dtype=float)
        return _sum_lines(terms, taus,
                          _line_buffers(terms, (taus.shape[0], pts.shape[0])))

    def difference_lp_samples(self, xi: np.ndarray, ts: np.ndarray, order: int,
                              p: float, nodes: np.ndarray,
                              weights: np.ndarray) -> np.ndarray:
        """Box-integrated |Delta^order_{t xi} f|^p for every step size t.

        The offsets are centered (l - order/2 instead of l), which translates
        the integrand by order*t*xi/2 and leaves the full-space integral
        unchanged while halving the sweep excursion the box must cover.

        Most (step, node) pairs of a box sit where every shifted copy of f
        is below rounding, so the steps are split into _SWEEP_GROUPS
        contiguous groups and each group sweeps (_sweep) only the nodes that
        can move its sums.  _group_bounds bounds |Delta| per group and node
        from the line coefficients, and _drop_plan picks the nodes to skip.
        Each row then checks that the dropped nodes' bound is at most
        _DROP_TOLERANCE times its sum over the kept nodes, and a row that
        fails the check sweeps the dropped nodes too.  A sample is thus
        within that share of its sum over every node, up to rounding, but
        its last digits are not those of one sweep over every node.  At even
        order the shift with offset 0 is f on the nodes at every t; it is
        evaluated once.

        The weights are positive, so a non-finite difference value gives a
        non-finite reduced row, and then NumericalFailureError is raised.
        A bound that is not finite keeps every node, so that check still
        sees every pair.  Memory: one block of |Delta|^p and its work
        arrays at a time, the bounds, (2 x groups) x P, and a group's copy
        of its kept nodes' line coefficients.
        """
        pts, _ = _as_matrix(nodes, self.dimension)
        terms = self._line_terms(pts, np.asarray(xi, dtype=float))
        ts = np.asarray(ts, dtype=float)
        weights = np.asarray(weights, dtype=float)
        K, P = ts.shape[0], pts.shape[0]
        if not terms or K == 0 or P == 0:
            return np.zeros(K)
        shifts = difference_stencil(order)
        middle_line = None
        if order >= 2 and order % 2 == 0:
            middle_line = shifts[order // 2][1] * _sum_lines(
                terms, np.zeros(1), _line_buffers(terms, (1, P)))
        # |Delta| is even in t, so the bounds take |t|
        steps = np.abs(ts)
        groups = _step_groups(K)
        starts = [rows[0] for rows in groups]
        lows = np.minimum.reduceat(steps, starts)
        highs = np.maximum.reduceat(steps, starts)
        with np.errstate(all="ignore"):
            plan = _drop_plan(terms, lows, highs, order, p, weights)
        if plan is None:
            return _sweep(terms, ts, shifts, middle_line, p, weights)

        def sweep(rows: np.ndarray, kept: np.ndarray) -> np.ndarray:
            """The rows' samples over the nodes with the indices `kept`."""
            part = [(neg_half_a[kept], b[kept], half_c, line[:, kept])
                    for neg_half_a, b, half_c, line in terms]
            return _sweep(part, ts[rows], shifts,
                          None if middle_line is None else middle_line[:, kept],
                          p, weights[kept])

        out = np.empty(K)
        for rows, dropped, large_sum, small_sum in zip(groups, *plan):
            if not dropped.any():
                out[rows] = _sweep(terms, ts[rows], shifts, middle_line, p,
                                   weights)
                continue
            sums = sweep(rows, np.flatnonzero(~dropped))
            bound = large_sum + steps[rows] ** (order * p) * small_sum
            short = bound > _DROP_TOLERANCE * sums
            if short.any():
                sums[short] += sweep(rows[short], np.flatnonzero(dropped))
            out[rows] = sums
        return out

    # -- calculus ----------------------------------------------------------

    def partial_values(self, points: np.ndarray, order: int) -> np.ndarray:
        """Every partial derivative d^alpha f with |alpha| = order at the
        points, one row per alpha of multi_indices(N, order), shape (K, P).

        For a term c q E with E = exp(-Q/2), d^gamma E = H_gamma E (see
        _hermite_factors), and by Leibniz
        d^alpha (q E) = sum_{beta <= alpha} C(alpha, beta) d^beta q
        H_{alpha - beta} E.  E is evaluated once per term, and every d^beta q
        comes from one set of monomial values (_polynomial_partials), so no
        Polynomial is built.

        Memory: the points are taken in blocks (_point_blocks) whose rows of
        the output hold about _SWEEP_BLOCK values, and the envelope, the
        Hermite factors and their products hold one block.  Each of those
        values is elementwise, so it does not depend on the blocking.  The
        d^beta q of a term are one matrix product over every point, whose
        last bits depend on how BLAS splits the points: they hold one row
        per beta and every point, and a row per monomial while they are
        built.
        """
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        pts, _ = _as_matrix(points, self.dimension)
        alphas = multi_indices(self.dimension, order)
        out = np.zeros((len(alphas), pts.shape[0]))
        for t in self.terms:
            polynomial = _polynomial_partials(t.polynomial, pts.T, order)
            for block in _point_blocks(pts.shape[0], len(alphas)):
                _add_term_partials(
                    out[:, block], pts[block], t, alphas,
                    {beta: dq[block] for beta, dq in polynomial.items()})
        return out

    def affine_compose(self, matrix: np.ndarray) -> "AnalyticField":
        """Exact f(Mx): new precision M^T A M, mean M^{-1} mu, polynomial q(Mx)."""
        matrix = np.asarray(matrix, dtype=float)
        if matrix.shape != (self.dimension, self.dimension):
            raise DimensionMismatchError("composition matrix shape mismatch")
        det = np.linalg.det(matrix)
        if abs(det) < 1e-12:
            raise SingularTransformError(f"matrix is singular, det = {det!r}")
        inv = np.linalg.inv(matrix)
        terms = []
        for t in self.terms:
            terms.append(GaussianTerm(
                t.coefficient,
                t.polynomial.compose_linear(matrix),
                inv @ t.mean,
                matrix.T @ t.precision @ matrix,
            ))
        return AnalyticField(self.dimension, terms)

    def restrict(self, axis: int, fixed: np.ndarray) -> "AnalyticField":
        """One-dimensional slice u -> f(..., u at `axis`, ...) as an exact field.

        `fixed` holds the frozen transverse coordinates in axis order.
        """
        fixed = np.asarray(fixed, dtype=float)
        others = [i for i in range(self.dimension) if i != axis]
        if fixed.shape != (self.dimension - 1,):
            raise DimensionMismatchError("fixed coordinates have wrong length")
        terms = []
        for t in self.terms:
            a = float(t.precision[axis, axis])
            v = t.precision[axis, others]
            d_o = fixed - t.mean[others]
            A_oo = t.precision[np.ix_(others, others)]
            # complete the square in the free coordinate
            mu1 = t.mean[axis] - float(v @ d_o) / a
            const = float(d_o @ A_oo @ d_o) - float(v @ d_o) ** 2 / a
            # polynomial: substitute each frozen coordinate value
            exps = t.polynomial.exponents
            factors = t.polynomial.coefficients * \
                np.prod(fixed ** exps[:, others], axis=1)
            terms.append(GaussianTerm(
                t.coefficient * math.exp(-0.5 * const),
                Polynomial._from_arrays(1, exps[:, axis], factors),
                np.array([mu1]),
                np.array([[a]]),
            ))
        return AnalyticField(1, terms)

    @functools.cached_property
    def covariance_envelope(self) -> np.ndarray:
        """Conservative spread matrix used to size integration boxes.

        Computed once per field, which is fixed after construction, and
        read-only: every directional box of a profile shares it."""
        if not self.terms:
            envelope = np.eye(self.dimension)
            envelope.flags.writeable = False
            return envelope
        covs = []
        means = []
        for t in self.terms:
            eigval, eigvec = np.linalg.eigh(t.precision)
            # a term wider than standard deviation 10 along an axis counts
            # as 10 there; the boxes then cap their half widths at
            # 4 x BOX_HALF_WIDTH
            eigval = np.maximum(eigval, 1e-2)
            covs.append(eigvec @ np.diag(1.0 / eigval) @ eigvec.T)
            means.append(t.mean)
        cov = np.mean(covs, axis=0)
        means = np.array(means)
        envelope = cov + means.T @ means / len(self.terms)
        envelope.flags.writeable = False
        return envelope

    def max_poly_degree(self) -> int:
        return max((t.polynomial.degree for t in self.terms), default=0)


@dataclass(frozen=True)
class SmoothnessParams:
    """Smoothness order s > 0 and integrability p >= 1 for one energy."""

    s: float
    p: float

    def __post_init__(self):
        if not (self.s > 0):
            raise ValueError("s must be positive")
        if not (self.p >= 1):
            raise ValueError("p must be at least 1")

    @property
    def fractional(self) -> bool:
        return abs(self.s - round(self.s)) > 1e-12

    @property
    def difference_order(self) -> int:
        """Order m of the difference operator: floor(s) + 1 when fractional."""
        if self.fractional:
            return int(math.floor(self.s)) + 1
        return int(round(self.s))

    @property
    def excluded(self) -> bool:
        """Integer s >= 2 with p = 1 sits outside the proven range."""
        return (not self.fractional) and round(self.s) >= 2 and self.p == 1.0


def multi_indices(dimension: int, order: int) -> list[tuple[int, ...]]:
    """All multi-indices alpha with |alpha| = order, lexicographic."""
    if dimension == 1:
        return [(order,)]
    out = []
    for head in range(order, -1, -1):
        for rest in multi_indices(dimension - 1, order - head):
            out.append((head,) + rest)
    return sorted(out)


def multinomial_coefficient(alpha: tuple[int, ...]) -> float:
    s = sum(alpha)
    c = math.factorial(s)
    for a in alpha:
        c //= math.factorial(a)
    return float(c)


def directional_weight_matrix(directions: np.ndarray, alphas: list[tuple[int, ...]]) -> np.ndarray:
    """Rows of s!/alpha! * xi^alpha so that W @ [d^alpha f] = d^s_xi f."""
    W = np.empty((directions.shape[0], len(alphas)))
    for j, alpha in enumerate(alphas):
        W[:, j] = multinomial_coefficient(alpha) * \
            np.prod(directions ** np.array(alpha), axis=1)
    return W


class GridField:
    """Scalar samples on a uniform tensor grid, for the one non-analytic run."""

    def __init__(self, origin: np.ndarray, spacing: np.ndarray,
                 values: np.ndarray):
        self.origin = np.asarray(origin, dtype=float)
        self.spacing = np.asarray(spacing, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.origin.shape[0] != self.values.ndim:
            raise DimensionMismatchError("origin does not match value array rank")
        if self.spacing.shape[0] != self.values.ndim:
            raise DimensionMismatchError("spacing does not match value array rank")

    @property
    def dimension(self) -> int:
        return self.values.ndim

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))
