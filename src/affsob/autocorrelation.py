"""Exact p = 2 difference energies of Gaussian-polynomial fields.

At p = 2 the difference energy along xi is a finite combination of the
field's autocorrelation R(u) = int f(x + u xi) f(x) dx:

    ||Delta^m_{t xi} f||_2^2 = sum_{k=-m}^{m} (-1)^k C(2m, m+k) R(k t).

R is a sum over ordered term pairs of integrals of Gaussian-polynomial
products.  A product has the combined precision A_i + A_j, so a tensor
Gauss-Hermite rule with more than half the product's degree nodes per axis
integrates it exactly.

For small t the sum cancels down to ~t^{2m} R(0) and rounding swamps it.
Below a crossover t_c the Taylor series of the same quantity is used:

    sum_{j >= m} (-1)^j M_j ||d^j_xi f||_2^2 t^{2j} / (2j)!,
    M_j = sum_k (-1)^k C(2m, m+k) k^{2j},

whose coefficients come from Gram matrices of the exact order-j partials,
contracted with the direction's weights.  t_c is the smallest step at which
the rounding bound of the closed form is below _TARGET_REL of the value; the
head takes as many terms as it needs for its first omitted term to be below
the same level at t_c.  A direction that needs more than _MAX_HEAD_TERMS
terms has no exact path.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .fields import AnalyticField, directional_weight_matrix, multi_indices

__all__ = ["ExactDifferenceEnergy", "exact_difference_energy"]

# relative level below which both the closed form's rounding and the Taylor
# head's truncation are held at the crossover
_TARGET_REL = 1e-9
_MAX_HEAD_TERMS = 6
_EPS = float(np.finfo(float).eps)


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


class _PairRule:
    """int f_i(x + u xi) f_j(x) dx for two terms
    f = c q(x) exp(-(x - mu)^T A (x - mu) / 2), as a standard-normal
    expectation.

    With P = A_i + A_j and H = A_i P^{-1} A_j the product of the Gaussian
    factors is exp(-d^T H d / 2) exp(-(x - m)^T P (x - m) / 2) with
    d = mu_i - mu_j - u xi and m = P^{-1}(A_i mu_i + A_j mu_j) - u P^{-1} A_i xi,
    so the integral is
    envelope(u) * E[q_i(m + u xi + L^{-T} z) q_j(m + L^{-T} z)], z ~ N(0, I),
    with P = L L^T and envelope(u) = c_i c_j (2 pi)^{N/2} det(P)^{-1/2}
    exp(-d^T H d / 2).
    """

    def __init__(self, a: AnalyticField, i: int, j: int):
        ti, tj = a.terms[i], a.terms[j]
        combined = ti.precision + tj.precision
        chol = np.linalg.cholesky(combined)
        self.n = a.dimension
        self.i, self.j = i, j
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

    def points(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Rule nodes as offsets from the centre, and their weights."""
        z, w = _hermite_rule(self.n, count)
        return z @ self.root_inv, w

    def envelope(self, xi: np.ndarray, u: np.ndarray) -> np.ndarray:
        d = self.delta[None, :] - u[:, None] * xi[None, :]
        return self.scale * np.exp(-0.5 * np.einsum("ui,ij,uj->u", d, self.hmat, d))


def _count_for(degree: int) -> int:
    """Gauss-Hermite nodes per axis that integrate this degree exactly."""
    return degree // 2 + 1


def _difference_weights(order: int) -> np.ndarray:
    """w_k for k = 0..order with g(t) = sum_k w_k R(k t): the symmetric
    weights (-1)^k C(2m, m+k) of +k and -k folded together."""
    w = np.array([2.0 * (-1.0) ** k * math.comb(2 * order, order + k)
                  for k in range(order + 1)])
    w[0] = math.comb(2 * order, order)
    return w


@dataclass(frozen=True)
class _Head:
    """Taylor head of one direction: g(t) = sum_j coeffs[j] t^{2(order+j)}
    for t < crossover."""

    crossover: float
    coeffs: np.ndarray


class ExactDifferenceEnergy:
    """||Delta^order_{t xi} f||_2^2 of an AnalyticField, exactly.

    Built once per field and difference order; the pair rules and the Gram
    matrices of the partial derivatives serve every direction.
    """

    def __init__(self, field: AnalyticField, order: int):
        self.field = field
        self.order = int(order)
        self.dimension = field.dimension
        n_terms = len(field.terms)
        self.pairs = [_PairRule(field, i, j)
                      for i in range(n_terms) for j in range(n_terms)]
        self.weights = _difference_weights(self.order)
        unit, zero = np.eye(self.dimension)[0], np.zeros(1)
        self.norm_sq = float(self.autocorrelation(unit, zero)[0])
        # the absolute pair contributions to R(0) set the size of the
        # rounding error of R(u) for the small u where the sum cancels
        self.rounding_scale = sum(
            abs(pair.envelope(unit, zero)[0]) * float(np.abs(vals[0]) @ w)
            for pair, (vals, w) in zip(self.pairs, self._pair_products(unit, zero)))
        self._partials: list[dict[tuple[int, ...], AnalyticField]] = [
            {(0,) * self.dimension: field}]
        self._grams: dict[int, tuple[list, np.ndarray]] = {}

    # -- closed form ---------------------------------------------------------

    def _pair_products(self, xi: np.ndarray, u: np.ndarray):
        """Per pair: ((U, K) values of q_i(x + u xi) q_j(x) at the rule
        nodes, K weights); constant polynomials take a one-node rule."""
        out = []
        for pair in self.pairs:
            ti, tj = self.field.terms[pair.i], self.field.terms[pair.j]
            offsets, w = pair.points(_count_for(
                ti.polynomial.degree + tj.polynomial.degree))
            base = pair.centre[None, :] - u[:, None] * (pair.drift @ xi)[None, :]
            pts = (base[:, None, :] + offsets[None, :, :]).reshape(-1, self.dimension)
            shifted = pts + np.repeat(u, offsets.shape[0])[:, None] * xi[None, :]
            vals = ti.polynomial.evaluate(shifted) * tj.polynomial.evaluate(pts)
            out.append((vals.reshape(u.shape[0], offsets.shape[0]), w))
        return out

    def autocorrelation(self, xi: np.ndarray, u: np.ndarray) -> np.ndarray:
        """R(u) = int f(x + u xi) f(x) dx at every displacement in u."""
        xi = np.asarray(xi, dtype=float)
        u = np.asarray(u, dtype=float)
        out = np.zeros(u.shape[0])
        for pair, (vals, w) in zip(self.pairs, self._pair_products(xi, u)):
            out += pair.envelope(xi, u) * (vals @ w)
        return out

    # -- Taylor head ---------------------------------------------------------

    def _partials_of_order(self, order: int) -> dict[tuple[int, ...], AnalyticField]:
        while len(self._partials) <= order:
            prev = self._partials[-1]
            nxt = {}
            for alpha in multi_indices(self.dimension, len(self._partials)):
                axis = next(k for k, a in enumerate(alpha) if a)
                parent = tuple(a - (k == axis) for k, a in enumerate(alpha))
                nxt[alpha] = prev[parent].partial_derivative(axis)
            self._partials.append(nxt)
        return self._partials[order]

    def _gram(self, order: int) -> tuple[list, np.ndarray]:
        """Alphas of one order and G[a, b] = int d^a f d^b f dx."""
        if order not in self._grams:
            partials = self._partials_of_order(order)
            alphas = list(partials)
            gram = np.zeros((len(alphas), len(alphas)))
            for pair in self.pairs:
                ti, tj = self.field.terms[pair.i], self.field.terms[pair.j]
                degree = ti.polynomial.degree + tj.polynomial.degree + 2 * order
                offsets, w = pair.points(_count_for(degree))
                pts = pair.centre[None, :] + offsets
                mass = pair.envelope(np.zeros(self.dimension), np.zeros(1))[0]
                rows_i = np.stack([partials[a].terms[pair.i].polynomial.evaluate(pts)
                                   for a in alphas])
                rows_j = np.stack([partials[a].terms[pair.j].polynomial.evaluate(pts)
                                   for a in alphas])
                gram += mass * (rows_i * w) @ rows_j.T
            self._grams[order] = (alphas, 0.5 * (gram + gram.T))
        return self._grams[order]

    def derivative_norm_sq(self, xi: np.ndarray, order: int) -> float:
        """||d^order_xi f||_2^2 from the Gram matrix of the order's partials."""
        alphas, gram = self._gram(order)
        w = directional_weight_matrix(np.asarray(xi, dtype=float)[None, :], alphas)[0]
        return float(w @ gram @ w)

    def _taylor_coefficient(self, xi: np.ndarray, j: int) -> float:
        k = np.arange(1, self.order + 1, dtype=float)
        moment = float(self.weights[1:] @ k ** (2 * j))
        return ((-1.0) ** j * moment * self.derivative_norm_sq(xi, j)
                / math.factorial(2 * j))

    def head(self, xi: np.ndarray) -> _Head | None:
        """Crossover and Taylor coefficients for one direction, or None when
        no head of at most _MAX_HEAD_TERMS terms meets _TARGET_REL."""
        xi = np.asarray(xi, dtype=float)
        m = self.order
        if self.rounding_scale == 0.0:
            return _Head(0.0, np.zeros(1))
        leading = self._taylor_coefficient(xi, m)
        if not leading > 0.0:
            return None
        rounding = _EPS * float(np.abs(self.weights).sum()) * self.rounding_scale
        crossover = (rounding / (_TARGET_REL * leading)) ** (1.0 / (2 * m))
        coeffs = [leading]
        for j in range(m + 1, m + _MAX_HEAD_TERMS + 1):
            nxt = self._taylor_coefficient(xi, j)
            kept = np.polynomial.polynomial.polyval(crossover ** 2, coeffs)
            if abs(nxt) * crossover ** (2 * (j - m)) <= _TARGET_REL * abs(kept):
                return _Head(crossover, np.array(coeffs))
            coeffs.append(nxt)
        return None

    # -- samples -------------------------------------------------------------

    def samples(self, xi: np.ndarray, ts: np.ndarray, head: _Head) -> np.ndarray:
        """||Delta^order_{t xi} f||_2^2 for every step size t in ts, with
        the direction's head from head(xi)."""
        xi = np.asarray(xi, dtype=float)
        ts = np.asarray(ts, dtype=float)
        out = np.empty(ts.shape[0])
        low = ts < head.crossover
        t2 = ts[low] ** 2
        out[low] = t2 ** self.order * np.polynomial.polynomial.polyval(t2, head.coeffs)
        high = ts[~low]
        if high.size:
            k = np.arange(1, self.order + 1, dtype=float)
            r = self.autocorrelation(xi, np.outer(k, high).ravel())
            out[~low] = (self.weights[0] * self.norm_sq
                         + self.weights[1:] @ r.reshape(self.order, high.size))
        return out


def exact_difference_energy(field, order: int) -> ExactDifferenceEnergy | None:
    """The exact p = 2 evaluator for this field and order, or None when the
    field is not an AnalyticField with positive definite precisions or its
    pair integrals overflow."""
    if not isinstance(field, AnalyticField) or field.flat_ok:
        return None
    try:
        model = ExactDifferenceEnergy(field, order)
    except np.linalg.LinAlgError:
        return None
    return model if math.isfinite(model.rounding_scale) else None
