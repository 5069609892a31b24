"""Exact p = 2 directional energies of Gaussian-polynomial fields.

At p = 2 the difference energy along xi is a finite combination of the
field's autocorrelation R(u) = int f(x + u xi) f(x) dx, which is even:

    ||Delta^m_{t xi} f||_2^2 = sum_{k=0}^{m} w_k R(k t),
    w_0 = C(2m, m),  w_k = 2 (-1)^k C(2m, m+k).

The w_k annihilate t^{2j} for j < m, so for every non-integer s < m the
radial integral D(f, xi) = int_0^inf t^{-1-2s} g(t) dt is a Hadamard
finite part:

    D(f, xi) = 1/2 K(s, m) FP int_R |u|^{-1-2s} R(u) du,
    K(s, m) = sum_{k=1}^{m} w_k k^{2s}.

Each ordered term pair (i, j) of R is A exp(-h (u - u0)^2 / 2) P(u) with
h > 0 and P a polynomial of degree at most deg_i + deg_j (see _PairRule);
(j, i) is the mirror image u -> -u and has the same finite part.  With
y = sqrt(h) u a pair's finite part is h^s sum_j c_j F_j(y0), where c_j are
the coefficients of P in y and

    F_j(y0) = FP int |y|^{-1-2s} y^j exp(-(y - y0)^2 / 2) dy

is a Kummer function (DLMF 13.2).  Nothing is truncated: the interval
returned with each energy bounds its rounding error, not a radial tail.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .fields import AnalyticField

__all__ = ["exact_directional_energies", "finite_part_moments"]

_EPS = float(np.finfo(float).eps)
# the Laplace expansion about y0 replaces the series where what it leaves
# out, about exp(-x) (2x)^{2s} relative with x = y0^2 / 2, is below
# exp(-_LAPLACE_LEVEL); the series takes about x steps
_LAPLACE_LEVEL = 40.0
# rounding steps charged to each absolute contribution in the error bound:
# the Gauss-Hermite sums, the interpolation of P, the series and K
_ROUNDING_STEPS = 64.0


@functools.lru_cache(maxsize=None)
def _hermite_rule(dimension: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss-Hermite rule for the standard normal on R^dimension:
    E[h(z)] = weights @ h(nodes), exact for degree < 2 count per axis."""
    x, w = np.polynomial.hermite_e.hermegauss(count)
    w = w / math.sqrt(2.0 * math.pi)
    grids = np.meshgrid(*([x] * dimension), indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=1)
    weights = np.ones(1)
    for _ in range(dimension):
        weights = np.multiply.outer(weights, w)
    nodes.flags.writeable = False
    weights = weights.ravel()
    weights.flags.writeable = False
    return nodes, weights


@functools.lru_cache(maxsize=None)
def _interpolation(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes y_k and the inverse Vandermonde matrix that turns the values
    of a polynomial of this degree at them into monomial coefficients."""
    y = np.polynomial.hermite_e.hermegauss(degree + 1)[0]
    inverse = np.linalg.inv(np.vander(y, increasing=True))
    y.flags.writeable = False
    inverse.flags.writeable = False
    return y, inverse


class _PairRule:
    """int f_i(x + u xi) f_j(x) dx for two terms
    f = c q(x) exp(-(x - mu)^T A (x - mu) / 2).

    With P = A_i + A_j and H = A_i P^{-1} A_j the product of the Gaussian
    factors is exp(-d^T H d / 2) exp(-(x - m)^T P (x - m) / 2) with
    d = mu_i - mu_j - u xi and m = P^{-1}(A_i mu_i + A_j mu_j) - u P^{-1} A_i xi,
    so the integral is
    envelope(u) * E[q_i(m + u xi + L^{-T} z) q_j(m + L^{-T} z)], z ~ N(0, I),
    with P = L L^T and envelope(u) = c_i c_j (2 pi)^{N/2} det(P)^{-1/2}
    exp(-d^T H d / 2).  In u the exponent is
    -(h (u - u0)^2 + delta^T H delta - h u0^2) / 2 with h = xi^T H xi and
    u0 = xi^T H delta / h, and the expectation is a polynomial P(u).
    """

    def __init__(self, a: AnalyticField, i: int, j: int):
        ti, tj = a.terms[i], a.terms[j]
        combined = ti.precision + tj.precision
        chol = np.linalg.cholesky(combined)
        self.n = a.dimension
        self.polys = (ti.polynomial, tj.polynomial)
        self.degree = ti.polynomial.degree + tj.polynomial.degree
        self.hmat = ti.precision @ np.linalg.solve(combined, tj.precision)
        self.hmat = 0.5 * (self.hmat + self.hmat.T)
        self.delta = ti.mean - tj.mean
        self.centre = np.linalg.solve(
            combined, ti.precision @ ti.mean + tj.precision @ tj.mean)
        # m moves by -u (P^{-1} A_i) xi; the nodes are x = m + z^T L^{-1}
        self.drift = np.linalg.solve(combined, ti.precision)
        self.root_inv = np.linalg.inv(chol)
        self.scale = (ti.coefficient * tj.coefficient
                      * (2.0 * math.pi) ** (self.n / 2.0)
                      / float(np.prod(np.diag(chol))))

    def polynomial_values(self, xi: np.ndarray, u: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray]:
        """P(u) for directions xi (D, N) at displacements u (D, U), with
        the absolute sums of the rule that bound its rounding."""
        z, w = _hermite_rule(self.n, self.degree // 2 + 1)
        offsets = z @ self.root_inv
        base = self.centre - u[:, :, None] * (xi @ self.drift.T)[:, None, :]
        pts = base[:, :, None, :] + offsets
        shifted = pts + u[:, :, None, None] * xi[:, None, None, :]
        q_i, q_j = self.polys
        vals = (q_i.evaluate(shifted.reshape(-1, self.n))
                * q_j.evaluate(pts.reshape(-1, self.n))).reshape(pts.shape[:3])
        return vals @ w, np.abs(vals) @ w


def _difference_weights(order: int) -> np.ndarray:
    """w_k for k = 0..order with g(t) = sum_k w_k R(k t)."""
    w = np.array([2.0 * (-1.0) ** k * math.comb(2 * order, order + k)
                  for k in range(order + 1)])
    w[0] = math.comb(2 * order, order)
    return w


def finite_part_moments(s: float, degree: int, y0: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
    """F_j(y0) = FP int |y|^{-1-2s} y^j exp(-(y - y0)^2 / 2) dy for
    j = 0..degree at every point of the 1-D array y0, shape
    (degree + 1, len(y0)), with the absolute sums of the terms that make
    them up.

    Up to a separation set by _LAPLACE_LEVEL the exact series

        F_j = exp(-y0^2 / 2) sum_{n = j mod 2} y0^n / n!
              * 2^{(j+n-2s)/2} Gamma((j+n-2s)/2),

    with steps of two in n, is summed; its terms are positive from the
    first few on.  Beyond, the Laplace expansion of |y|^{j-1-2s} about y0,

        F_j ~ sqrt(2 pi) sgn(y0)^j |y0|^a sum_{k even} C(a, k) (k-1)!! y0^{-k},

    with a = j - 1 - 2s, is summed until its terms stop mattering.
    """
    y0 = np.asarray(y0, dtype=float)
    j = np.arange(degree + 1, dtype=float)[:, None]
    value = np.empty(j.shape[:1] + y0.shape)
    size = np.empty_like(value)
    x = 0.5 * y0 ** 2
    near = x - 2.0 * s * np.log(np.maximum(2.0 * x, 1.0)) < _LAPLACE_LEVEL

    y = y0[near]
    n = j % 2
    a = 0.5 * (j + n) - s
    gamma = np.vectorize(math.gamma)(a)
    term = np.where(n == 1, y, 1.0) * 2.0 ** a * gamma
    total, absolute = term.copy(), np.abs(term)
    y2 = y ** 2
    while np.any(np.abs(term) > _EPS * absolute):
        term = term * y2 * (j + n - 2.0 * s) / ((n + 1.0) * (n + 2.0))
        n = n + 2.0
        total += term
        absolute += np.abs(term)
    damping = np.exp(-0.5 * y2)
    value[:, near] = damping * total
    size[:, near] = damping * absolute

    y = y0[~near]
    a = j - 1.0 - 2.0 * s
    k = 0.0
    term = np.ones(j.shape[:1] + y.shape)
    total, absolute = term.copy(), term.copy()
    y2 = y ** 2
    while np.any(np.abs(term) > _EPS * absolute):
        term = term * (a - k) * (a - k - 1.0) / ((k + 2.0) * y2)
        k += 2.0
        total += term
        absolute += np.abs(term)
    lead = math.sqrt(2.0 * math.pi) * np.sign(y) ** j * np.abs(y) ** a
    value[:, ~near] = lead * total
    size[:, ~near] = np.abs(lead) * absolute
    return value, size


def exact_directional_energies(field, directions: np.ndarray, s: float,
                               order: int
                               ) -> tuple[np.ndarray, np.ndarray] | None:
    """D(f, xi) at p = 2 along each row of directions, and a bound on the
    rounding error of each value; None when the field is not an
    AnalyticField with positive definite precisions or its pair integrals
    overflow."""
    if not isinstance(field, AnalyticField) or field.flat_ok:
        return None
    n_terms = len(field.terms)
    try:
        pairs = [(_PairRule(field, i, j), 1.0 if i == j else 2.0)
                 for i in range(n_terms) for j in range(i, n_terms)]
    except np.linalg.LinAlgError:
        return None
    if not all(math.isfinite(pair.scale) for pair, _ in pairs):
        return None

    xi = np.asarray(directions, dtype=float)
    k = np.arange(1, order + 1, dtype=float)
    weights = _difference_weights(order)[1:] * k ** (2.0 * s)
    finite_part = np.zeros(xi.shape[0])
    absolute = np.zeros(xi.shape[0])
    for pair, multiplicity in pairs:
        h = np.einsum("di,ij,dj->d", xi, pair.hmat, xi)
        h_delta = xi @ (pair.hmat @ pair.delta)
        gap = float(pair.delta @ pair.hmat @ pair.delta) - h_delta ** 2 / h
        front = multiplicity * pair.scale * np.exp(-0.5 * gap) * h ** s
        nodes, inverse = _interpolation(pair.degree)
        root = np.sqrt(h)
        vals, sizes = pair.polynomial_values(xi, nodes / root[:, None])
        moments, moment_sizes = finite_part_moments(s, pair.degree,
                                                    h_delta / root)
        coeffs = vals @ inverse.T
        finite_part += front * np.einsum("dj,jd->d", coeffs, moments)
        absolute += np.abs(front) * np.einsum(
            "dj,jd->d", sizes @ np.abs(inverse).T, moment_sizes)
    values = 0.5 * float(weights.sum()) * finite_part
    bounds = (0.5 * _ROUNDING_STEPS * _EPS * float(np.abs(weights).sum())
              * absolute)
    return values, bounds
