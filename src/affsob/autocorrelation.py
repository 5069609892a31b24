"""Exact even-p directional energies of Gaussian-polynomial fields.

At even p, g(t) = int (sum_{l,i} c_l f_i(x + l t xi))^p dx sums, over
multisets of p (shift l, term i) pairs, multinomial * prod c_l times the
products I(t) = int prod_k f_{i_k}(x + l_k t xi) dx, each
A exp(-(h (t - t0)^2 + gap) / 2) P(t) (see _ProductRule).  Products that
differ by a translation of the shifts, or by l -> -l (I(t) -> I(-t)),
merge; products constant in t drop out.  g is even and O(t^{pm}), so for
s < m, D(f, xi) = int_0^inf t^{-1-sp} g(t) dt is half the sum of the
products' Hadamard finite parts, each h^sigma sum_j c_j F_j(y0) with
sigma = sp/2, c_j the coefficients of P in y = sqrt(h) t and the Kummer
functions F_j(y0) = FP int |y|^{-1-2 sigma} y^j exp(-(y - y0)^2 / 2) dy.
At p = 2 sigma = s is not an integer, and the dilations t -> k t merge as
well: D(f, xi) = 1/2 K FP int |u|^{-1-2s} R(u) du over the autocorrelation
R with K = sum_{k>=1} 2 (-1)^k C(2m, m+k) k^{2s}.  At integer sigma the F_j
have poles; each product keeps the constant term of its Laurent expansion
in sigma, as the pole parts add up to g's zero t^{sp} coefficient (so no
dilations merge: t -> c t would add c^{sp} log c terms).  Nothing is
truncated: the interval returned with each energy bounds its rounding.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter

import numpy as np

from .fields import _SWEEP_BLOCK, AnalyticField

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
    of a polynomial of this degree at them into monomial coefficients: the
    Gauss rule at the y_k gives its coefficients in the He_j, whose own are
    integers (inverting the Vandermonde matrix, of condition 3e16 at degree
    18, does not)."""
    herme = np.polynomial.hermite_e
    y, w = herme.hermegauss(degree + 1)
    to_monomial = np.zeros((degree + 1, degree + 1))
    for j, row in enumerate(np.eye(degree + 1)):
        to_monomial[:j + 1, j] = herme.herme2poly(row) / (
            math.sqrt(2.0 * math.pi) * math.factorial(j))
    inverse = to_monomial @ (herme.hermevander(y, degree) * w[:, None]).T
    y.flags.writeable = False
    inverse.flags.writeable = False
    return y, inverse


class _ProductRule:
    """int prod_k f_{i_k}(x + l_k t xi) dx over factors k = 1..F of terms
    c q(x) exp(-(x - mu)^T A (x - mu) / 2), for a batch of shift vectors l
    with l_F = 0.  With P = sum_k A_k = L L^T and d_k = mu_k - mu_F - l_k t xi
    the Gaussians multiply to exp(-Q / 2) exp(-(x - m)^T P (x - m) / 2) with
    Q = sum_{k,k'<F} d_k^T M_kk' d_k', M_kk = A_k P^{-1} (P - A_k),
    M_kk' = -A_k P^{-1} A_k' and m = P^{-1} sum_k A_k (mu_k - l_k t xi), so
    the integral is prod_k c_k (2 pi)^{N/2} det(P)^{-1/2} exp(-Q / 2) times
    P(t) = E[prod_k q_k(m + l_k t xi + L^{-T} z)], z ~ N(0, I).  Two factors
    give the autocorrelation pair, M = A_1 P^{-1} A_2.
    """

    def __init__(self, a: AnalyticField, terms: tuple[int, ...]):
        factors = [a.terms[i] for i in terms]
        precisions = [t.precision for t in factors]
        combined = functools.reduce(np.add, precisions)
        chol = np.linalg.cholesky(combined)
        self.n = a.dimension
        self.polys = tuple(t.polynomial for t in factors)
        self.degree = sum(q.degree for q in self.polys)
        moving = range(len(factors) - 1)
        # m moves by -t (P^{-1} A_k) l_k xi; the nodes are x = m + z^T L^{-1}
        self.drift = np.stack([np.linalg.solve(combined, precisions[k])
                               for k in moving])
        hmat = np.block([[
            precisions[k] @ np.linalg.solve(combined, functools.reduce(
                np.add, precisions[:k] + precisions[k + 1:]))
            if k == kk else -precisions[k] @ self.drift[kk]
            for kk in moving] for k in moving])
        hmat = 0.5 * (hmat + hmat.T)
        delta = np.concatenate([factors[k].mean - factors[-1].mean
                                for k in moving])
        self.hmat = hmat.reshape(len(moving), self.n, len(moving), self.n)
        self.h_delta = (hmat @ delta).reshape(len(moving), self.n)
        self.delta_norm = float(delta @ hmat @ delta)
        self.centre = np.linalg.solve(combined, functools.reduce(
            np.add, [t.precision @ t.mean for t in factors]))
        self.root_inv = np.linalg.inv(chol)
        self.scale = (math.prod(t.coefficient for t in factors)
                      * (2.0 * math.pi) ** (self.n / 2.0)
                      / float(np.prod(np.diag(chol))))

    def exponent(self, xi: np.ndarray, shifts: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
        """h and h t0, so that Q = h t^2 - 2 h t0 t + delta_norm, for shift
        vectors (G, F - 1) along directions xi (D, N), each (G, D)."""
        hmat = np.einsum("gk,kilj,gl->gij", shifts, self.hmat, shifts)
        h = np.einsum("di,gij,dj->gd", xi, hmat, xi)
        return h, np.stack([xi @ b for b in shifts @ self.h_delta])

    def polynomial_values(self, xi: np.ndarray, shifts: np.ndarray,
                          t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """P(t) for shift vectors (G, F - 1) and directions xi (D, N) at
        steps t (G, D, T), with the absolute sums of the rule that bound
        its rounding."""
        z, w = _hermite_rule(self.n, self.degree // 2 + 1)
        offsets = z @ self.root_inv
        drift = np.tensordot(shifts, self.drift, axes=1)
        base = (self.centre - t[..., None]
                * (xi @ drift.transpose(0, 2, 1))[:, :, None, :])
        pts = base[..., None, :] + offsets
        vals = 1.0
        for k, q in enumerate(self.polys):
            at = pts if k == shifts.shape[1] else pts + (shifts[
                :, k, None, None] * t)[..., None, None] * xi[:, None, None, :]
            vals = vals * q.evaluate(at.reshape(-1, self.n)).reshape(
                pts.shape[:-1])
        return vals @ w, np.abs(vals) @ w

    def finite_parts(self, xi: np.ndarray, shifts: np.ndarray,
                     weights: np.ndarray, sigma: float
                     ) -> tuple[np.ndarray, np.ndarray]:
        """sum over the batch of weight * FP int |t|^{-1-2 sigma} I(t) dt
        along each direction, and the absolute sum of its contributions,
        in blocks of shift vectors of about _SWEEP_BLOCK nodes."""
        nodes, inverse = _interpolation(self.degree)
        size = xi.shape[0] * nodes.size * (self.degree // 2 + 1) ** self.n
        value, absolute = np.zeros((2, xi.shape[0]))
        block = max(1, _SWEEP_BLOCK // size)
        for lo in range(0, shifts.shape[0], block):
            lam = shifts[lo:lo + block]
            h, h_t0 = self.exponent(xi, lam)
            gap = self.delta_norm - h_t0 ** 2 / h
            front = (weights[lo:lo + block, None] * self.scale
                     * np.exp(-0.5 * gap) * h ** sigma)
            root = np.sqrt(h)
            vals, sizes = self.polynomial_values(xi, lam,
                                                 nodes / root[..., None])
            moments = finite_part_moments(sigma, self.degree,
                                          (h_t0 / root).ravel(),
                                          log_scale=np.log(h).ravel())
            moments, moment_sizes = (m.reshape((-1,) + h.shape)
                                     for m in moments)
            value += (front * np.einsum("gdj,jgd->gd", vals @ inverse.T,
                                        moments)).sum(axis=0)
            absolute += (np.abs(front) * np.einsum(
                "gdj,jgd->gd", sizes @ np.abs(inverse).T, moment_sizes)
                ).sum(axis=0)
        return value, absolute


@functools.lru_cache(maxsize=None)
def _expansion(n_terms: int, p: int, order: int) -> tuple:
    """(terms, shifts (G, p - 1), weights) per sorted term tuple of g(t) at
    even p, each shift vector standing for its translations and reflection."""
    c = [math.comb(order, l) * (-1) ** (order - l) for l in range(order + 1)]
    atoms = [(i, l) for i in range(n_terms) for l in range(order + 1)]
    groups: dict = {}
    for chosen in itertools.combinations_with_replacement(atoms, p):
        terms = tuple(i for i, _ in chosen)
        if len({l for _, l in chosen}) == 1:
            continue
        weight = math.factorial(p) * math.prod(c[l] for _, l in chosen)
        for count in Counter(chosen).values():
            weight //= math.factorial(count)
        # sorted within each run of one term, measured from the last factor
        key = min(tuple(l - ordered[-1][1] for _, l in ordered[:-1])
                  for ordered in (sorted((i, sign * l) for i, l in chosen)
                                  for sign in (1, -1)))
        table = groups.setdefault(terms, {})
        table[key] = table.get(key, 0) + weight
    products = []
    for terms, table in groups.items():
        arrays = [np.array(list(keys), dtype=float)
                  for keys in (table, table.values())]
        for a in arrays:
            a.flags.writeable = False
        products.append((terms, *arrays))
    return tuple(products)


def finite_part_moments(s: float, degree: int, y0: np.ndarray,
                        log_scale=0.0) -> tuple[np.ndarray, np.ndarray]:
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

    At integer s a series term with a = (j+n)/2 - s = -i <= 0 sits on a
    pole.  Of a finite part h^s sum_j c_j F_j it keeps the constant term of
    h^eps 2^{a-eps} Gamma(a - eps) as eps -> 0 (DLMF 5.7.1),
    2^{-i} (-1)^i / i! (psi(i+1) + log 2 - log h) with log h = log_scale
    (a scalar or one per y0) and psi(i+1) = H_i - Euler's constant.
    """
    y0 = np.asarray(y0, dtype=float)
    j = np.arange(degree + 1, dtype=float)[:, None]
    value = np.empty(j.shape[:1] + y0.shape)
    size = np.empty_like(value)
    x = 0.5 * y0 ** 2
    near = x - 2.0 * s * np.log(np.maximum(2.0 * x, 1.0)) < _LAPLACE_LEVEL

    y = y0[near]
    y2 = y ** 2
    n = j % 2
    a = 0.5 * (j + n) - s
    power = np.where(n == 1, y, 1.0)
    total, absolute = np.zeros(power.shape), np.zeros(power.shape)
    if s == math.floor(s):
        log_h = np.broadcast_to(log_scale, y0.shape)[near]
        for row in range(degree + 1):
            while a[row, 0] <= 0.0:
                i = int(-a[row, 0])
                psi = sum(1.0 / k for k in range(1, i + 1)) - np.euler_gamma
                term = ((-0.5) ** i / math.factorial(i) * power[row]
                        * (psi + math.log(2.0) - log_h))
                total[row] += term
                absolute[row] += np.abs(term)
                power[row] *= y2 / ((n[row] + 1.0) * (n[row] + 2.0))
                n[row] += 2.0
                a[row] += 1.0
    gamma = np.vectorize(math.gamma)(a)
    term = power * 2.0 ** a * gamma
    total += term
    absolute += np.abs(term)
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
                               p: float, order: int
                               ) -> tuple[np.ndarray, np.ndarray] | None:
    """D(f, xi) at even p along each row of directions, and a bound on the
    rounding error of each value; None when p is not an even integer, the
    field is not an AnalyticField with positive definite precisions, or
    its product integrals overflow."""
    if not isinstance(field, AnalyticField) or field.flat_ok or p % 2.0:
        return None
    n_terms = len(field.terms)
    if p == 2.0:
        k = np.arange(1, order + 1, dtype=float)
        weights = k ** (2.0 * s) * [2.0 * (-1) ** j * math.comb(
            2 * order, order + j) for j in range(1, order + 1)]
        factor = float(weights.sum())
        bound_factor = float(np.abs(weights).sum())
        # R's ordered pairs (i, j) and (j, i) are mirror images
        products = [((i, j), np.ones((1, 1)), np.array([2.0 - (i == j)]))
                    for i in range(n_terms) for j in range(i, n_terms)]
    else:
        factor = bound_factor = 1.0
        products = _expansion(n_terms, int(p), order)
    try:
        rules = [(_ProductRule(field, terms), shifts, weights)
                 for terms, shifts, weights in products]
    except np.linalg.LinAlgError:
        return None
    if not all(math.isfinite(rule.scale) for rule, _, _ in rules):
        return None

    xi = np.asarray(directions, dtype=float)
    sigma = 0.5 * s * p
    # within rounding of a pole the series would divide by the rounding
    if abs(sigma - round(sigma)) <= 8.0 * _EPS * sigma:
        sigma = float(round(sigma))
    finite_part = np.zeros(xi.shape[0])
    absolute = np.zeros(xi.shape[0])
    for rule, shifts, weights in rules:
        value, size = rule.finite_parts(xi, shifts, weights, sigma)
        finite_part += value
        absolute += size
    values = 0.5 * factor * finite_part
    bounds = 0.5 * _ROUNDING_STEPS * _EPS * bound_factor * absolute
    return values, bounds
