"""Exact test fields: Gaussian-polynomial sums and sampled grid fields.

The analytic class (sums of c * q(x) * exp(-(x-mu)^T A (x-mu)/2) with q a
polynomial and A symmetric positive definite) is closed under partial and
directional differentiation, finite differences, and affine composition,
so every pointwise quantity the energy pipeline needs can be evaluated
without discretization error.
"""
from __future__ import annotations

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

    def directional_derivative(self, xi: np.ndarray) -> "Polynomial":
        """sum_j xi_j d_j q, its rows taken axis by axis."""
        xi = np.asarray(xi, dtype=float)
        powers = self.exponents.T
        shifted = self.exponents[None, :, :] - \
            np.eye(self.dimension, dtype=np.int64)[:, None, :]
        keep = (powers > 0) & (xi != 0.0)[:, None]
        values = (self.coefficients * powers) * xi[:, None]
        return Polynomial._from_arrays(self.dimension, shifted[keep],
                                       values[keep])

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
# |Delta|^p array holds about this many doubles and stays in cache
_SWEEP_BLOCK = 65536


def _line_buffers(terms: list[tuple], shape: tuple[int, int]
                  ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Work arrays (expo, vals, poly) for _sum_lines, None where unneeded:
    a lone term without a polynomial factor needs no vals, and poly serves
    only a term after the first that has one."""
    factors = [rows.shape[0] > 1 for *_, rows in terms]
    vals = np.empty(shape) if len(terms) > 1 or any(factors) else None
    poly = np.empty(shape) if any(factors[1:]) else None
    return np.empty(shape), vals, poly


def _sum_lines(terms: list[tuple], taus: np.ndarray,
               buffers: tuple) -> np.ndarray:
    """Array of [k, j] = sum of the terms' values at x_j + taus[k] xi.

    `terms` comes from AnalyticField._line_terms and `buffers` from
    _line_buffers, with at least len(taus) rows; the result is the leading
    rows of one of them, overwritten by the next call.  Every value is
    computed elementwise, so it does not depend on how the steps are split
    into pieces.
    """
    expo, vals, poly = (buf if buf is None else buf[:taus.shape[0]]
                        for buf in buffers)
    if not terms:
        expo.fill(0.0)
        return expo
    for i, (neg_half_a, b, half_c, rows) in enumerate(terms):
        np.multiply(taus[:, None], b, out=expo)
        np.subtract(neg_half_a, expo, out=expo)
        expo -= (half_c * taus ** 2)[:, None]
        np.exp(expo, out=expo)
        if rows.shape[0] == 1:
            # a term without a polynomial factor scales its exp in place,
            # unless it is the first of several and starts the sum in vals
            target = vals if i == 0 and len(terms) > 1 else expo
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
    return vals if len(terms) > 1 else target


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

    def validate(self, flat_ok: bool = False) -> None:
        n = self.mean.shape[0]
        if self.precision.shape != (n, n):
            raise DimensionMismatchError("precision shape does not match mean")
        if not np.allclose(self.precision, self.precision.T, atol=1e-12):
            raise ValueError("precision matrix must be symmetric")
        eigs = np.linalg.eigvalsh(self.precision)
        # below n * eps * (largest eigenvalue) the smallest one is rounding
        # noise, and the matrix is not numerically positive definite
        floor = -1e-12 if flat_ok else max(
            1e-14, n * np.finfo(float).eps * eigs.max())
        if eigs.min() < floor:
            kind = "positive semidefinite" if flat_ok else "positive definite"
            raise ValueError(f"precision matrix must be {kind}; eigenvalues {eigs}")


def _envelope_derivative(poly: Polynomial, term: GaussianTerm,
                         xi: np.ndarray) -> Polynomial:
    """Polynomial factor of d_xi [poly * exp(-Q/2)] over the term's
    Gaussian exp(-Q/2): d_xi poly - (xi^T A (x - mu)) poly."""
    n = poly.dimension
    w = term.precision @ xi
    linear = Polynomial._from_arrays(
        n, np.vstack([np.zeros(n, dtype=np.int64), np.eye(n, dtype=np.int64)]),
        np.concatenate([[-float(w @ term.mean)], w]))
    return poly.directional_derivative(xi) + (poly * linear).scaled(-1.0)


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


class AnalyticField:
    """Finite sum of Gaussian-polynomial terms on R^N."""

    def __init__(self, dimension: int, terms: Sequence[GaussianTerm],
                 flat_ok: bool = False):
        self.dimension = int(dimension)
        self.terms = tuple(terms)
        self.flat_ok = bool(flat_ok)
        for t in self.terms:
            if t.mean.shape[0] != self.dimension:
                raise DimensionMismatchError("term dimension mismatch")
            if t.polynomial.dimension != self.dimension:
                raise DimensionMismatchError("polynomial dimension mismatch")
            t.validate(flat_ok=flat_ok)

    # -- constructors ------------------------------------------------------

    @classmethod
    def gaussian(cls, dimension: int, precision=None, mean=None,
                 coefficient: float = 1.0, poly: Polynomial | None = None,
                 flat_ok: bool = False) -> "AnalyticField":
        precision = np.eye(dimension) if precision is None else np.asarray(precision, float)
        mean = np.zeros(dimension) if mean is None else np.asarray(mean, float)
        poly = Polynomial.constant(dimension, 1.0) if poly is None else poly
        return cls(dimension, [GaussianTerm(coefficient, poly, mean, precision)],
                   flat_ok=flat_ok)

    def __add__(self, other: "AnalyticField") -> "AnalyticField":
        if other.dimension != self.dimension:
            raise DimensionMismatchError("cannot add fields of different dimension")
        return AnalyticField(self.dimension, self.terms + other.terms,
                             flat_ok=self.flat_ok or other.flat_ok)

    def scaled(self, factor: float) -> "AnalyticField":
        terms = [GaussianTerm(t.coefficient * factor, t.polynomial, t.mean, t.precision)
                 for t in self.terms]
        return AnalyticField(self.dimension, terms, flat_ok=self.flat_ok)

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
        evaluated on the points once.  Each entry is
        (-a/2, b, c/2, coefficient times the Taylor rows, shape (D+1, P)).
        """
        terms = []
        for t in self.terms:
            d = pts - t.mean
            a = np.einsum("pi,ij,pj->p", d, t.precision, d)
            w = t.precision @ xi
            b = d @ w
            c = float(xi @ w)
            rows = []
            q = t.polynomial
            for k in range(t.polynomial.degree + 1):
                rows.append(q.evaluate(pts) / math.factorial(k))
                q = q.directional_derivative(xi)
                if q.is_zero:
                    break
            terms.append((-0.5 * a, b, 0.5 * c,
                          t.coefficient * np.vstack(rows)))
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

        One cache-blocked pass: the step sizes are taken in blocks of about
        _SWEEP_BLOCK (step, node) pairs, and each block's |Delta|^p is
        reduced against the weights by one matrix product.  That array is
        the only block-sized one: its rows are filled in two half-block
        pieces, each evaluating the order+1 shifted lines in half-block
        work arrays, forming the difference and raising it to the p-th
        power in place.  The row count of a block decides how the product
        groups its sums, so it is kept at _SWEEP_BLOCK // P.  At even order
        the middle shift has offset 0, so its line is f on the nodes at
        every t; it is evaluated once, with the same per-element operations
        as at tau = 0, and added to every piece.

        The weights are positive, so a non-finite difference value gives a
        non-finite reduced row, and then NumericalFailureError is raised.
        Memory: one block of |Delta|^p and at most three half-block work
        arrays; no (order+1)*K by P matrix of line values is built.
        """
        pts, _ = _as_matrix(nodes, self.dimension)
        terms = self._line_terms(pts, np.asarray(xi, dtype=float))
        ts = np.asarray(ts, dtype=float)
        weights = np.asarray(weights, dtype=float)
        shifts = [(l - order / 2.0, math.comb(order, l) * (-1.0) ** (order - l))
                  for l in range(order + 1)]
        K, P = ts.shape[0], pts.shape[0]
        block = max(1, min(K, _SWEEP_BLOCK // max(P, 1)))
        piece = (block + 1) // 2
        buffers = _line_buffers(terms, (piece, P))
        middle = order // 2 if order >= 2 and order % 2 == 0 else None
        if middle is not None:
            middle_line = shifts[middle][1] * _sum_lines(
                terms, np.zeros(1), _line_buffers(terms, (1, P)))
        delta = np.empty((block, P))
        out = np.empty(K)
        for lo in range(0, K, block):
            n = min(block, K - lo)
            for start in range(0, n, piece):
                steps = ts[lo + start:lo + min(start + piece, n)]
                rows = delta[start:start + steps.shape[0]]
                for l, (offset, coeff) in enumerate(shifts):
                    if l == middle:
                        rows += middle_line
                        continue
                    vals = _sum_lines(terms, offset * steps, buffers)
                    if l == 0:
                        np.multiply(vals, coeff, out=rows)
                    else:
                        if coeff != 1.0:
                            vals *= coeff
                        rows += vals
                _abs_power(rows, p, buffers[0][:steps.shape[0]])
            reduced = np.matmul(delta[:n], weights, out=out[lo:lo + n])
            if not np.isfinite(reduced).all():
                raise NumericalFailureError("non-finite difference values")
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
        """
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        pts, _ = _as_matrix(points, self.dimension)
        # one contiguous row per coordinate
        x = np.ascontiguousarray(pts.T)
        alphas = multi_indices(self.dimension, order)
        out = np.zeros((len(alphas), pts.shape[0]))
        for t in self.terms:
            d = x - t.mean[:, None]
            u = t.precision @ d
            envelope = np.exp(-0.5 * np.einsum("ip,ip->p", u, d))
            envelope *= t.coefficient
            # c E d^beta q, for every beta that does not annihilate q
            scaled = {beta: dq * envelope for beta, dq in
                      _polynomial_partials(t.polynomial, x, order).items()}
            lowest = order - max(sum(beta) for beta in scaled)
            hermite = _hermite_factors(u, t.precision, order, lowest)
            for row, alpha in zip(out, alphas):
                for beta, dq in scaled.items():
                    gamma = tuple(a - b for a, b in zip(alpha, beta))
                    if min(gamma) >= 0:
                        weight = math.prod(map(math.comb, alpha, beta))
                        row += weight * hermite[gamma] * dq
        return out

    def directional_derivative(self, xi: np.ndarray, order: int = 1) -> "AnalyticField":
        """Exact d^order/dt^order f(x + t xi) at t = 0, as a new field."""
        if order < 1:
            raise ValueError("derivative order must be >= 1")
        xi = np.asarray(xi, dtype=float)
        norm = np.linalg.norm(xi)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"direction must be a unit vector, |xi| = {norm!r}")
        terms = []
        for t in self.terms:
            poly = t.polynomial
            for _ in range(order):
                poly = _envelope_derivative(poly, t, xi)
            terms.append(GaussianTerm(t.coefficient, poly, t.mean, t.precision))
        return AnalyticField(self.dimension, terms, flat_ok=self.flat_ok)

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
        return AnalyticField(self.dimension, terms, flat_ok=self.flat_ok)

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
            if a <= 0.0:
                raise ValueError("restriction needs positive curvature on the axis")
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
        return AnalyticField(1, terms, flat_ok=self.flat_ok)

    def covariance_envelope(self) -> np.ndarray:
        """Conservative spread matrix used to size integration boxes."""
        n = self.dimension
        if not self.terms:
            return np.eye(n)
        covs = []
        means = []
        for t in self.terms:
            eigval, eigvec = np.linalg.eigh(t.precision)
            # flat directions get a capped width instead of an infinite one
            eigval = np.maximum(eigval, 1e-2)
            covs.append(eigvec @ np.diag(1.0 / eigval) @ eigvec.T)
            means.append(t.mean)
        cov = np.mean(covs, axis=0)
        means = np.array(means)
        spread = means.T @ means / len(self.terms)
        return cov + spread

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
