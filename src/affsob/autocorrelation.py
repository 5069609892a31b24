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

from .fields import (_SWEEP_BLOCK, AnalyticField, NumericalFailureError,
                     Polynomial)

__all__ = ["exact_directional_energies", "finite_part_moments"]

_EPS = float(np.finfo(float).eps)
# an energy whose double-precision bound exceeds this share of it is
# recomputed in long double (64-bit significands on x86; where long double
# is double, nothing changes)
_RECOMPUTE_LEVEL = 1e-9
# the Laplace expansion about y0 replaces the series where what it leaves
# out, about exp(-x) (2x)^{2s} relative with x = y0^2 / 2, is below
# exp(-_LAPLACE_LEVEL); the series takes about x steps
_LAPLACE_LEVEL = 40.0
# rounding steps charged to each absolute contribution in the error bound:
# the Gauss-Hermite sums, the expansion of P in t, the series and K
_ROUNDING_STEPS = 64.0


# Euler's constant and the Bernoulli numbers B_2 .. B_24 as fractions
_EULER = "0.57721566490153286060651209008240243"
_BERNOULLI = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730),
              (7, 6), (-3617, 510), (43867, 798), (-174611, 330),
              (854513, 138), (-236364091, 2730))


def _pi(dtype) -> np.floating:
    return 4 * np.arctan(np.ones((), dtype=dtype))


def _gamma(a: np.ndarray) -> np.ndarray:
    """Gamma at every entry of a, in its floating type: math.gamma in
    double; a wider type shifts the argument past 10 and sums Stirling's
    series to B_24 (2e-22 left out), whose exponential is good to about
    20 units of the type's rounding."""
    if a.dtype == np.float64:
        return np.vectorize(math.gamma, otypes=[float])(a)
    shift = np.maximum(np.ceil(10 - a), 0)
    z = a + shift
    divisor = np.ones_like(a)
    for k in range(int(shift.max(initial=0))):
        divisor *= np.where(k < shift, a + k, 1)
    log = (z - 0.5) * np.log(z) - z + 0.5 * np.log(2 * _pi(a.dtype))
    for k, (num, den) in enumerate(_BERNOULLI, start=1):
        log += (np.asarray(num, dtype=a.dtype) / den
                / (2 * k * (2 * k - 1) * z ** (2 * k - 1)))
    return np.exp(log) / divisor


def _cholesky(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """L with matrix = L L^T, and L^{-1}, in the matrix's floating type
    (numpy's LAPACK routines take double only); np.linalg.LinAlgError when
    the matrix is not positive definite."""
    n = len(matrix)
    chol = np.zeros_like(matrix)
    for j in range(n):
        pivot = matrix[j, j] - chol[j, :j] @ chol[j, :j]
        if not pivot > 0:
            raise np.linalg.LinAlgError("matrix is not positive definite")
        chol[j, j] = np.sqrt(pivot)
        chol[j + 1:, j] = (matrix[j + 1:, j]
                           - chol[j + 1:, :j] @ chol[j, :j]) / chol[j, j]
    inverse = np.zeros_like(matrix)
    for i in range(n):
        inverse[i, i] = 1 / chol[i, i]
        inverse[i, :i] = -(chol[i, :i] @ inverse[:i, :i]) / chol[i, i]
    return chol, inverse


def _hermite_e(x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """He_n(x) and He_{n-1}(x) by the three-term recurrence."""
    low, high = np.ones_like(x), x
    for k in range(1, n):
        low, high = high, x * high - k * low
    return high, low


@functools.lru_cache(maxsize=None)
def _hermite_rule(dimension: int, count: int, dtype=float
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss-Hermite rule for the standard normal on R^dimension:
    E[h(z)] = weights @ h(nodes), exact for degree < 2 count per axis.
    The double nodes are refined by Newton steps on He_count in dtype and
    the weights are count! / (count He_{count-1}(x))^2."""
    x = np.polynomial.hermite_e.hermegauss(count)[0].astype(dtype)
    for _ in range(2):
        high, low = _hermite_e(x, count)
        x = x - high / (count * low)
    w = (np.prod(np.arange(1, count + 1, dtype=dtype))
         / (count * _hermite_e(x, count)[1]) ** 2)
    grids = np.meshgrid(*([x] * dimension), indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=1)
    weights = np.ones(1, dtype=dtype)
    for _ in range(dimension):
        weights = np.multiply.outer(weights, w)
    nodes.flags.writeable = False
    weights = weights.ravel()
    weights.flags.writeable = False
    return nodes, weights


def _convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficients of the product of two polynomials, lowest first along
    axis 0, each coefficient an array; the loop runs over the shorter's."""
    if len(b) > len(a):
        a, b = b, a
    out = np.empty((len(a) + len(b) - 1,)
                   + np.broadcast_shapes(a.shape[1:], b.shape[1:]),
                   dtype=np.result_type(a, b))
    np.multiply(a, b[0], out=out[:len(a)])
    out[len(a):] = 0.0
    step = np.empty_like(out[:len(a)])
    for r in range(1, len(b)):
        out[r:r + len(a)] += np.multiply(a, b[r], out=step)
    return out


@functools.lru_cache(maxsize=None)
def _binomials(top: int) -> np.ndarray:
    """C(e, r) at [e, r] for e, r <= top."""
    table = np.array([[math.comb(e, r) for r in range(top + 1)]
                      for e in range(top + 1)], dtype=float)
    table.flags.writeable = False
    return table


def _taylor_coefficients(poly: Polynomial, points: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray]:
    """The multi-indices alpha of poly's expansion about each of the points
    (Z, N), and (d^alpha q)(a) / alpha! = sum_m c_m prod_i C(e_mi, alpha_i)
    a_i^(e_mi - alpha_i) at them with the absolute sums of its terms on
    axis 1, shape (A, 2, 1, 1, Z)."""
    exponents = poly.exponents
    top = exponents.max(axis=0, initial=0)
    alphas = np.array(list(itertools.product(*(range(e + 1) for e in top))))
    weight = np.prod(_binomials(int(top.max(initial=0)))[
        exponents, alphas[:, None]], axis=2)
    used = weight.any(axis=1)
    alphas, weight = alphas[used], weight[used]
    rest = np.maximum(exponents - alphas[:, None], 0)
    a = np.stack([points, np.abs(points)])
    pa = np.empty((top.max(initial=0) + 1,) + a.shape[-1:] + a.shape[:-1],
                  dtype=a.dtype)
    pa[0] = 1.0
    for k in range(1, len(pa)):
        np.multiply(pa[k - 1], np.moveaxis(a, -1, 0), out=pa[k])
    c = poly.coefficients.astype(a.dtype)
    terms = (weight[..., None, None] * np.stack([c, np.abs(c)], axis=1)[
        ..., None] * np.prod(pa[rest, np.arange(len(top))], axis=2))
    return alphas, terms.sum(axis=1)[:, :, None, None, :]


def _shifted_coefficients(alphas: np.ndarray, taylor: np.ndarray,
                          b: np.ndarray) -> np.ndarray:
    """Coefficients in t, lowest first, of q(a + t b) = sum over alpha of
    (d^alpha q)(a) / alpha! b^alpha t^|alpha| for the expansion of
    _taylor_coefficients and slopes b (G, D, N), with the absolute sums of
    the terms on axis 1: shape (degree + 1, 2, G, D, Z)."""
    b = np.stack([b, np.abs(b)])
    pb = np.empty((alphas.max(initial=0) + 1,) + b.shape[-1:] + b.shape[:-1],
                  dtype=b.dtype)
    pb[0] = 1.0
    for k in range(1, len(pb)):
        np.multiply(pb[k - 1], np.moveaxis(b, -1, 0), out=pb[k])
    slopes = np.prod(pb[alphas, np.arange(alphas.shape[1])], axis=1)
    degrees = alphas.sum(axis=1)
    out = np.zeros((degrees.max() + 1,) + slopes.shape[1:] + taylor.shape[-1:],
                   dtype=np.result_type(taylor, slopes))
    for r, t, sl in zip(degrees, taylor, slopes):
        out[r] += t * sl[..., None]
    return out


class _ProductRule:
    """int prod_k f_{i_k}(x + l_k t xi) dx over factors k = 1..F of terms
    c q(x) exp(-(x - mu)^T A (x - mu) / 2), for a batch of shift vectors l
    with l_F = 0.  With P = sum_k A_k = L L^T and d_k = mu_k - mu_F - l_k t xi
    the Gaussians multiply to exp(-Q / 2) exp(-(x - m)^T P (x - m) / 2) with
    Q = sum_{k,k'<F} d_k^T M_kk' d_k', M_kk = A_k P^{-1} (P - A_k),
    M_kk' = -A_k P^{-1} A_k' and m = P^{-1} sum_k A_k (mu_k - l_k t xi), so
    the integral is prod_k c_k (2 pi)^{N/2} det(P)^{-1/2} exp(-Q / 2) times
    P(t) = E[prod_k q_k(m + l_k t xi + L^{-T} z)], z ~ N(0, I).  Two factors
    give the autocorrelation pair, M = A_1 P^{-1} A_2.  Everything is
    computed in dtype from the terms' double parameters.
    """

    def __init__(self, a: AnalyticField, terms: tuple[int, ...], dtype=float):
        factors = [a.terms[i] for i in terms]
        precisions = [t.precision.astype(dtype) for t in factors]
        means = [t.mean.astype(dtype) for t in factors]
        combined = functools.reduce(np.add, precisions)
        chol, root_inv = _cholesky(combined)
        inverse = root_inv.T @ root_inv
        self.dtype = dtype
        self.n = a.dimension
        self.degree = sum(t.polynomial.degree for t in factors)
        moving = range(len(factors) - 1)
        # m moves by -t (P^{-1} A_k) l_k xi; the nodes are x = m + z^T L^{-1}
        self.drift = np.stack([inverse @ precisions[k] for k in moving])
        hmat = np.block([[
            precisions[k] @ inverse @ functools.reduce(
                np.add, precisions[:k] + precisions[k + 1:])
            if k == kk else -precisions[k] @ self.drift[kk]
            for kk in moving] for k in moving])
        hmat = 0.5 * (hmat + hmat.T)
        delta = np.concatenate([means[k] - means[-1] for k in moving])
        self.hmat = hmat.reshape(len(moving), self.n, len(moving), self.n)
        self.h_delta = (hmat @ delta).reshape(len(moving), self.n)
        self.delta_norm = delta @ hmat @ delta
        centre = inverse @ functools.reduce(
            np.add, [a @ mu for a, mu in zip(precisions, means)])
        # constant polynomials join the scale; an overflow leaves a scale
        # that is not finite, which callers reject
        constants = [t.coefficient for t in factors] + [
            t.polynomial.coefficients.sum() for t in factors
            if not t.polynomial.degree]
        with np.errstate(over="ignore"):
            self.scale = (np.prod(np.array(constants, dtype=dtype))
                          * (2 * _pi(dtype)) ** (self.n / 2)
                          / np.prod(np.diag(chol)))
        z, self.weights = _hermite_rule(self.n, self.degree // 2 + 1, dtype)
        points = centre + z @ root_inv
        self.expansions = [(k, *_taylor_coefficients(t.polynomial, points))
                           for k, t in enumerate(factors)
                           if t.polynomial.degree]

    def exponent(self, xi: np.ndarray, shifts: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
        """h and h t0, so that Q = h t^2 - 2 h t0 t + delta_norm, for shift
        vectors (G, F - 1) along directions xi (D, N), each (G, D)."""
        hmat = np.einsum("gk,kilj,gl->gij", shifts, self.hmat, shifts)
        h = np.einsum("di,gij,dj->gd", xi, hmat, xi)
        return h, np.stack([xi @ b for b in shifts @ self.h_delta])

    def polynomial_coefficients(self, xi: np.ndarray, shifts: np.ndarray
                                ) -> tuple[np.ndarray, np.ndarray]:
        """Coefficients of P in t, lowest first, for shift vectors (G, F - 1)
        and directions xi (D, N), shape (degree + 1, G, D), with sizes that
        bound their rounding in units of the rounding step.

        At each Gauss-Hermite node z every factor q_k that is not constant
        (those are in the scale) is a polynomial in t, expanded about t = 0,
        and the factors are multiplied out.  Sampling P at degree + 1 steps
        and interpolating would magnify the samples' rounding by the
        interpolation's condition (3e16 at degree 18); the finite parts of
        one term tuple's shift rows cancel to 1e-4 of their size, so at
        p = 6 that rounding reached the energy at 1e-9.  A factor's rounding
        is the absolute sum of its expansion's terms, and a product of a and
        b adds |a| * |b| to the propagated e_a * |b| + |a| * e_b (each * a
        convolution)."""
        drift = np.tensordot(shifts, self.drift, axes=1)
        moving = -(xi @ drift.transpose(0, 2, 1))
        # axis 1 holds the coefficients c, |c| + e and |c|, e their rounding
        state = np.ones((1, 3, 1, 1, 1), dtype=self.dtype)
        for k, alphas, taylor in self.expansions:
            slope = moving if k == shifts.shape[1] else moving + (
                shifts[:, k, None, None] * xi)
            factor = _shifted_coefficients(alphas, taylor, slope)
            state = _convolve(state, np.stack(
                [factor[:, 0], np.abs(factor[:, 0]), factor[:, 1]], axis=1))
            state[:, 1] += state[:, 2]
            np.abs(state[:, 0], out=state[:, 2])
            state[:, 1] += state[:, 2]
        return state[:, 0] @ self.weights, state[:, 1] @ self.weights

    def finite_parts(self, xi: np.ndarray, shifts: np.ndarray,
                     weights: np.ndarray, sigma: float
                     ) -> tuple[np.ndarray, np.ndarray]:
        """sum over the batch of weight * FP int |t|^{-1-2 sigma} I(t) dt
        along each direction, and the absolute sum of its contributions,
        in blocks of shift vectors of about _SWEEP_BLOCK nodes."""
        size = (xi.shape[0] * (self.degree + 1)
                * (self.degree // 2 + 1) ** self.n)
        value, absolute = np.zeros((2, xi.shape[0]), dtype=self.dtype)
        block = max(1, _SWEEP_BLOCK // size)
        # P(t) = sum_j c_j y^j in y = sqrt(h) t
        powers = -np.arange(self.degree + 1.0)[:, None, None]
        for lo in range(0, shifts.shape[0], block):
            lam = shifts[lo:lo + block]
            h, h_t0 = self.exponent(xi, lam)
            gap = self.delta_norm - h_t0 ** 2 / h
            front = (weights[lo:lo + block, None] * self.scale
                     * np.exp(-0.5 * gap) * h ** sigma)
            root = np.sqrt(h)
            scale = root ** powers
            coefficients, sizes = (c * scale for c in
                                   self.polynomial_coefficients(xi, lam))
            moments = finite_part_moments(sigma, self.degree,
                                          (h_t0 / root).ravel(),
                                          log_scale=np.log(h).ravel())
            moments, moment_sizes = (m.reshape((-1,) + h.shape)
                                     for m in moments)
            value += (front * (coefficients * moments).sum(axis=0)).sum(axis=0)
            absolute += (np.abs(front)
                         * (sizes * moment_sizes).sum(axis=0)).sum(axis=0)
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

    Everything is computed in the floating type of y0, double or wider.
    """
    y0 = np.asarray(y0)
    dtype = np.result_type(y0, float)
    y0 = y0.astype(dtype, copy=False)
    eps = np.finfo(dtype).eps
    j = np.arange(degree + 1, dtype=dtype)[:, None]
    value = np.empty(j.shape[:1] + y0.shape, dtype=dtype)
    size = np.empty_like(value)
    x = 0.5 * y0 ** 2
    near = x - 2.0 * s * np.log(np.maximum(2.0 * x, 1.0)) < _LAPLACE_LEVEL

    y = y0[near]
    y2 = y ** 2
    n = j % 2
    a = 0.5 * (j + n) - s
    power = np.where(n == 1, y, 1.0)
    total, absolute = np.zeros((2,) + power.shape, dtype=dtype)
    if s == math.floor(s):
        log_h = np.broadcast_to(log_scale, y0.shape)[near]
        log_2 = np.log(np.asarray(2, dtype=dtype))
        for row in range(degree + 1):
            while a[row, 0] <= 0.0:
                i = int(-a[row, 0])
                psi = (np.sum(1 / np.arange(1, i + 1, dtype=dtype))
                       - dtype.type(_EULER))
                term = (np.asarray((-0.5) ** i, dtype=dtype)
                        / math.factorial(i) * power[row]
                        * (psi + log_2 - log_h))
                total[row] += term
                absolute[row] += np.abs(term)
                power[row] *= y2 / ((n[row] + 1.0) * (n[row] + 2.0))
                n[row] += 2.0
                a[row] += 1.0
    term = power * 2.0 ** a * _gamma(a)
    total += term
    absolute += np.abs(term)
    while np.any(np.abs(term) > eps * absolute):
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
    term = np.ones(j.shape[:1] + y.shape, dtype=dtype)
    total, absolute = term.copy(), term.copy()
    y2 = y ** 2
    while np.any(np.abs(term) > eps * absolute):
        term = term * (a - k) * (a - k - 1.0) / ((k + 2.0) * y2)
        k += 2.0
        total += term
        absolute += np.abs(term)
    lead = np.sqrt(2 * _pi(dtype)) * np.sign(y) ** j * np.abs(y) ** a
    value[:, ~near] = lead * total
    size[:, ~near] = np.abs(lead) * absolute
    return value, size


def _energies(field: AnalyticField, products, dilations, xi: np.ndarray,
              s: float, sigma: float, dtype
              ) -> tuple[np.ndarray, np.ndarray]:
    """The energies and their rounding bounds, computed in dtype;
    NumericalFailureError when a product's precision is not positive
    definite or its scale overflows."""
    try:
        rules = [(_ProductRule(field, terms, dtype), shifts, weights)
                 for terms, shifts, weights in products]
    except np.linalg.LinAlgError:
        raise NumericalFailureError(
            "exact even-p energy: the precision of a product of terms is "
            "not positive definite") from None
    if not all(np.isfinite(rule.scale) for rule, _, _ in rules):
        raise NumericalFailureError(
            "exact even-p energy: the scale of a product of terms overflows")
    k, c = (np.array(column, dtype=dtype) for column in zip(*dilations))
    weights = c * k ** (2.0 * s)
    finite_part = np.zeros(xi.shape[0], dtype=dtype)
    absolute = np.zeros(xi.shape[0], dtype=dtype)
    for rule, shifts, weights_ in rules:
        value, size = rule.finite_parts(xi, shifts, weights_, sigma)
        finite_part += value
        absolute += size
    values = (0.5 * weights.sum() * finite_part).astype(float)
    # with the rounding of a wider type's values to double
    bounds = (0.5 * _ROUNDING_STEPS * np.finfo(dtype).eps
              * np.abs(weights).sum() * absolute).astype(float)
    return values, bounds + 0.5 * _EPS * np.abs(values)


def exact_directional_energies(field: AnalyticField, directions: np.ndarray,
                               s: float, p: float, order: int
                               ) -> tuple[np.ndarray, np.ndarray]:
    """D(f, xi) at even p along each row of directions, and a bound on the
    rounding error of each value; ValueError when p is not an even integer
    or the field is not an AnalyticField; NumericalFailureError when a
    product of its terms overflows or has a precision that is not positive
    definite.  Energies whose bound exceeds _RECOMPUTE_LEVEL of their value
    are computed again in long double."""
    if not isinstance(field, AnalyticField) or p % 2.0:
        raise ValueError("exact energies need an analytic field and even p")
    n_terms = len(field.terms)
    if p == 2.0:
        # the dilations t -> k t merge, with weights 2 (-1)^k C(2m, m+k)
        dilations = [(k, 2.0 * (-1) ** k * math.comb(2 * order, order + k))
                     for k in range(1, order + 1)]
        # R's ordered pairs (i, j) and (j, i) are mirror images
        products = [((i, j), np.ones((1, 1)), np.array([2.0 - (i == j)]))
                    for i in range(n_terms) for j in range(i, n_terms)]
    else:
        dilations = [(1, 1.0)]
        products = _expansion(n_terms, int(p), order)

    xi = np.asarray(directions, dtype=float)
    sigma = 0.5 * s * p
    # within rounding of a pole the series would divide by the rounding
    if abs(sigma - round(sigma)) <= 8.0 * _EPS * sigma:
        sigma = float(round(sigma))
    values, bounds = _energies(field, products, dilations, xi, s, sigma,
                               float)
    redo = bounds > _RECOMPUTE_LEVEL * np.abs(values)
    if redo.any() and np.finfo(np.longdouble).eps < _EPS:
        values[redo], bounds[redo] = _energies(
            field, products, dilations, xi[redo], s, sigma, np.longdouble)
    return values, bounds
