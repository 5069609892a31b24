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


class Polynomial:
    """Sparse multivariate polynomial, exponent tuple -> coefficient.

    Zero coefficients are never stored; the zero polynomial has no terms.
    """

    __slots__ = ("dimension", "exponents", "coefficients")

    def __init__(self, dimension: int, coeffs: Mapping[tuple, float] | Iterable):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        cleaned: dict[tuple[int, ...], float] = {}
        for exp, c in items:
            exp = tuple(int(e) for e in exp)
            if len(exp) != dimension:
                raise DimensionMismatchError(
                    f"exponent {exp} does not match dimension {dimension}")
            if any(e < 0 for e in exp):
                raise ValueError(f"negative exponent in {exp}")
            c = float(c)
            if c != 0.0:
                cleaned[exp] = cleaned.get(exp, 0.0) + c
        cleaned = {e: c for e, c in cleaned.items() if c != 0.0}
        self.dimension = dimension
        keys = sorted(cleaned)
        self.exponents = np.array(keys, dtype=np.int64).reshape(len(keys), dimension)
        self.coefficients = np.array([cleaned[k] for k in keys], dtype=float)

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
        if self.is_zero:
            out = np.zeros(pts.shape[0])
        else:
            # x^0 and x^1 need no pow; higher powers keep the elementwise
            # pow of an exponent array (a scalar 2 would square instead)
            mono = np.ones((pts.shape[0], self.exponents.shape[0]))
            for j, exp in enumerate(self.exponents):
                for axis, e in enumerate(exp):
                    if e == 1:
                        mono[:, j] *= pts[:, axis]
                    elif e > 1:
                        mono[:, j] *= pts[:, axis] ** np.full(pts.shape[0], e)
            out = mono @ self.coefficients
        return out[0] if single else out

    def __add__(self, other: "Polynomial") -> "Polynomial":
        merged = dict(self.items())
        for exp, c in other.items():
            merged[exp] = merged.get(exp, 0.0) + c
        return Polynomial(self.dimension, merged)

    def scaled(self, factor: float) -> "Polynomial":
        return Polynomial(self.dimension, {e: c * factor for e, c in self.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        out: dict[tuple[int, ...], float] = {}
        for e1, c1 in self.items():
            for e2, c2 in other.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, 0.0) + c1 * c2
        return Polynomial(self.dimension, out)

    def partial_derivative(self, axis: int) -> "Polynomial":
        out: dict[tuple[int, ...], float] = {}
        for exp, c in self.items():
            if exp[axis] == 0:
                continue
            key = tuple(e - 1 if i == axis else e for i, e in enumerate(exp))
            out[key] = out.get(key, 0.0) + c * exp[axis]
        return Polynomial(self.dimension, out)

    def directional_derivative(self, xi: np.ndarray) -> "Polynomial":
        xi = np.asarray(xi, dtype=float)
        result = Polynomial(self.dimension, {})
        for axis in range(self.dimension):
            if xi[axis] != 0.0:
                result = result + self.partial_derivative(axis).scaled(xi[axis])
        return result

    def compose_linear(self, matrix: np.ndarray) -> "Polynomial":
        """Return q(Mx) by expanding each coordinate substitution."""
        matrix = np.asarray(matrix, dtype=float)
        n = self.dimension
        # linear forms l_i(x) = sum_j M[i, j] x_j
        linears = [
            Polynomial(n, {tuple(int(k == j) for k in range(n)): matrix[i, j]
                           for j in range(n)})
            for i in range(n)
        ]
        out = Polynomial(n, {})
        for exp, c in self.items():
            term = Polynomial.constant(n, c)
            for i, e in enumerate(exp):
                for _ in range(e):
                    term = term * linears[i]
            out = out + term
        return out


# (step, node) pairs per block of the fused difference sweep: every
# work array of a block holds about this many doubles and stays in cache
_SWEEP_BLOCK = 65536


def _sum_lines(terms: list[tuple], taus: np.ndarray, out: np.ndarray,
               expo: np.ndarray, poly: np.ndarray) -> None:
    """out[k, j] = sum of the terms' values at x_j + taus[k] xi.

    `terms` comes from AnalyticField._line_terms; expo and poly are work
    arrays of out's shape.
    """
    for i, (neg_half_a, b, half_c, rows) in enumerate(terms):
        np.multiply(taus[:, None], b, out=expo)
        np.subtract(neg_half_a, expo, out=expo)
        expo -= (half_c * taus ** 2)[:, None]
        np.exp(expo, out=expo)
        target = out if i == 0 else poly
        if rows.shape[0] == 1:
            np.multiply(expo, rows[0], out=target)
        else:
            # Horner's rule in tau for the polynomial factor; elementwise,
            # so a value does not depend on how the steps are blocked
            np.multiply(taus[:, None], rows[-1], out=target)
            for row in rows[-2:0:-1]:
                target += row
                target *= taus[:, None]
            target += rows[0]
            target *= expo
        if i > 0:
            out += poly
    if not terms:
        out.fill(0.0)


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
        out = np.zeros(pts.shape[0])
        for t in self.terms:
            d = pts - t.mean
            quad = np.einsum("pi,ij,pj->p", d, t.precision, d)
            vals = t.polynomial.evaluate(pts)
            out += t.coefficient * vals * np.exp(-0.5 * quad)
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
            k = 0
            while not q.is_zero or k == 0:
                rows.append(q.evaluate(pts) / math.factorial(k))
                q = q.directional_derivative(xi)
                k += 1
                if k > t.polynomial.degree + 1:
                    break
            terms.append((-0.5 * a, b, 0.5 * c,
                          t.coefficient * np.vstack(rows)))
        return terms

    def line_values(self, points: np.ndarray, xi: np.ndarray,
                    taus: np.ndarray, max_block: int = 6_000_000) -> np.ndarray:
        """Evaluate f(points + tau * xi) for every tau, shape (K, P).

        The Gaussian exponent along the line is quadratic in tau and the
        polynomial factor is a tau-polynomial with coefficient functions
        precomputed on the points, so each term costs one exp per
        (tau, point) pair.
        """
        pts, _ = _as_matrix(points, self.dimension)
        terms = self._line_terms(pts, np.asarray(xi, dtype=float))
        taus = np.asarray(taus, dtype=float)
        P, K = pts.shape[0], taus.shape[0]
        out = np.empty((K, P))
        block = max(1, min(K, int(max_block // max(P, 1)) or 1))
        expo = np.empty((block, P))
        poly = np.empty((block, P))
        for lo in range(0, K, block):
            ts = taus[lo:lo + block]
            n = ts.shape[0]
            _sum_lines(terms, ts, out[lo:lo + n], expo[:n], poly[:n])
        return out

    def difference_lp_samples(self, xi: np.ndarray, ts: np.ndarray, order: int,
                              p: float, nodes: np.ndarray,
                              weights: np.ndarray) -> np.ndarray:
        """Box-integrated |Delta^order_{t xi} f|^p for every step size t.

        The offsets are centered (l - order/2 instead of l), which translates
        the integrand by order*t*xi/2 and leaves the full-space integral
        unchanged while halving the sweep excursion the box must cover.

        One cache-blocked pass: the step sizes are taken in blocks of about
        _SWEEP_BLOCK (step, node) pairs, and each block evaluates the
        order+1 shifted lines, forms the difference, raises it to the p-th
        power and reduces it against the weights in preallocated buffers,
        so no (order+1)*K by P matrix of line values is ever built.
        Raises NumericalFailureError if a difference value is not finite.
        """
        pts, _ = _as_matrix(nodes, self.dimension)
        terms = self._line_terms(pts, np.asarray(xi, dtype=float))
        ts = np.asarray(ts, dtype=float)
        weights = np.asarray(weights, dtype=float)
        shifts = [(l - order / 2.0, math.comb(order, l) * (-1.0) ** (order - l))
                  for l in range(order + 1)]
        K, P = ts.shape[0], pts.shape[0]
        block = max(1, min(K, _SWEEP_BLOCK // max(P, 1)))
        buffers = np.empty((4, block, P))
        finite = np.empty((block, P), dtype=bool)
        out = np.empty(K)
        for lo in range(0, K, block):
            steps = ts[lo:lo + block]
            n = steps.shape[0]
            vals, delta, expo, poly = (buf[:n] for buf in buffers)
            for l, (offset, coeff) in enumerate(shifts):
                _sum_lines(terms, offset * steps, vals, expo, poly)
                if l == 0:
                    np.multiply(vals, coeff, out=delta)
                else:
                    if coeff != 1.0:
                        vals *= coeff
                    delta += vals
            if not np.isfinite(delta, out=finite[:n]).all():
                raise NumericalFailureError("non-finite difference values")
            _abs_power(delta, p, expo)
            np.matmul(delta, weights, out=out[lo:lo + n])
        return out

    # -- calculus ----------------------------------------------------------

    def partial_derivative(self, axis: int) -> "AnalyticField":
        e = np.zeros(self.dimension)
        e[axis] = 1.0
        return self._directional_derivative_once(e)

    def _directional_derivative_once(self, xi: np.ndarray) -> "AnalyticField":
        terms = []
        for t in self.terms:
            w = t.precision @ xi
            # d_xi [q e^{-Q/2}] = (d_xi q - q * xi^T A (x - mu)) e^{-Q/2}
            linear = Polynomial(self.dimension, {
                **{tuple(int(k == j) for k in range(self.dimension)): w[j]
                   for j in range(self.dimension)},
                (0,) * self.dimension: -float(w @ t.mean),
            })
            newpoly = t.polynomial.directional_derivative(xi) + \
                (t.polynomial * linear).scaled(-1.0)
            terms.append(GaussianTerm(t.coefficient, newpoly, t.mean, t.precision))
        return AnalyticField(self.dimension, terms, flat_ok=self.flat_ok)

    def directional_derivative(self, xi: np.ndarray, order: int = 1) -> "AnalyticField":
        """Exact d^order/dt^order f(x + t xi) at t = 0, as a new field."""
        if order < 1:
            raise ValueError("derivative order must be >= 1")
        xi = np.asarray(xi, dtype=float)
        norm = np.linalg.norm(xi)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"direction must be a unit vector, |xi| = {norm!r}")
        out = self
        for _ in range(order):
            out = out._directional_derivative_once(xi)
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
            poly1: dict[tuple[int], float] = {}
            for exp, c in t.polynomial.items():
                factor = c
                for pos, i in enumerate(others):
                    factor *= fixed[pos] ** exp[i]
                key = (exp[axis],)
                poly1[key] = poly1.get(key, 0.0) + factor
            terms.append(GaussianTerm(
                t.coefficient * math.exp(-0.5 * const),
                Polynomial(1, poly1),
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


def partial_derivative_fields(field: AnalyticField, order: int) -> dict[tuple[int, ...], AnalyticField]:
    """All partial derivative fields d^alpha f for |alpha| = order."""
    out: dict[tuple[int, ...], AnalyticField] = {}
    for alpha in multi_indices(field.dimension, order):
        g = field
        for axis, reps in enumerate(alpha):
            for _ in range(reps):
                g = g.partial_derivative(axis)
        out[alpha] = g
    return out


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
                 values: np.ndarray, support_radius: float):
        self.origin = np.asarray(origin, dtype=float)
        self.spacing = np.asarray(spacing, dtype=float)
        self.values = np.asarray(values, dtype=float)
        self.support_radius = float(support_radius)
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

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Multilinear interpolation inside the sampled box, zero outside."""
        pts, single = _as_matrix(x, self.dimension)
        rel = (pts - self.origin) / self.spacing
        shape = np.array(self.values.shape)
        inside = np.all((rel >= 0) & (rel <= shape - 1), axis=1)
        out = np.zeros(pts.shape[0])
        if np.any(inside):
            r = rel[inside]
            i0 = np.clip(np.floor(r).astype(int), 0, shape - 2)
            frac = r - i0
            acc = np.zeros(r.shape[0])
            for corner in range(2 ** self.dimension):
                bits = [(corner >> k) & 1 for k in range(self.dimension)]
                idx = tuple(i0[:, k] + bits[k] for k in range(self.dimension))
                w = np.ones(r.shape[0])
                for k in range(self.dimension):
                    w *= frac[:, k] if bits[k] else 1.0 - frac[:, k]
                acc += w * self.values[idx]
            out[inside] = acc
        return out[0] if single else out

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.evaluate(x)

    def gradient_arrays(self) -> list[np.ndarray]:
        return list(np.gradient(self.values, *self.spacing))

    def hessian_arrays(self) -> dict[tuple[int, int], np.ndarray]:
        """Second central differences; only the upper triangle is stored."""
        grads = self.gradient_arrays()
        out: dict[tuple[int, int], np.ndarray] = {}
        for i in range(self.dimension):
            gi = np.gradient(grads[i], *self.spacing)
            for j in range(i, self.dimension):
                out[(i, j)] = gi[j]
        return out

    def compose_affine(self, matrix: np.ndarray) -> "GridField":
        """Resample f(Mx) on the same grid by interpolation."""
        matrix = np.asarray(matrix, dtype=float)
        det = np.linalg.det(matrix)
        if abs(det) < 1e-12:
            raise SingularTransformError(f"matrix is singular, det = {det!r}")
        axes = [self.origin[k] + self.spacing[k] * np.arange(self.values.shape[k])
                for k in range(self.dimension)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        vals = self.evaluate(pts @ matrix.T)
        return GridField(self.origin, self.spacing,
                         vals.reshape(self.values.shape), self.support_radius)
