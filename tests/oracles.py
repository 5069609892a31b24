"""Symbolic directional derivatives of Gaussian-polynomial fields.

The library differentiates along a direction through the partials of each
term's polynomial factor (`fields._taylor_rows` and
`AnalyticField.partial_values`).  These functions build the derivative as a
new `Polynomial` or `AnalyticField` instead, one directional step at a time,
and serve the tests as an independent reference.
"""

import numpy as np

from affsob.fields import AnalyticField, GaussianTerm, Polynomial


def polynomial_directional_derivative(poly: Polynomial,
                                      xi: np.ndarray) -> Polynomial:
    """sum_j xi_j d_j q, its rows taken axis by axis."""
    xi = np.asarray(xi, dtype=float)
    powers = poly.exponents.T
    shifted = poly.exponents[None, :, :] - \
        np.eye(poly.dimension, dtype=np.int64)[:, None, :]
    keep = (powers > 0) & (xi != 0.0)[:, None]
    values = (poly.coefficients * powers) * xi[:, None]
    return Polynomial._from_arrays(poly.dimension, shifted[keep],
                                   values[keep])


def envelope_derivative(poly: Polynomial, term: GaussianTerm,
                        xi: np.ndarray) -> Polynomial:
    """Polynomial factor of d_xi [poly * exp(-Q/2)] over the term's
    Gaussian exp(-Q/2): d_xi poly - (xi^T A (x - mu)) poly."""
    n = poly.dimension
    w = term.precision @ xi
    linear = Polynomial._from_arrays(
        n, np.vstack([np.zeros(n, dtype=np.int64), np.eye(n, dtype=np.int64)]),
        np.concatenate([[-float(w @ term.mean)], w]))
    return (polynomial_directional_derivative(poly, xi)
            + (poly * linear).scaled(-1.0))


def directional_derivative(field: AnalyticField, xi: np.ndarray,
                           order: int = 1) -> AnalyticField:
    """Exact d^order/dt^order f(x + t xi) at t = 0, as a new field."""
    if order < 1:
        raise ValueError("derivative order must be >= 1")
    xi = np.asarray(xi, dtype=float)
    norm = np.linalg.norm(xi)
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"direction must be a unit vector, |xi| = {norm!r}")
    terms = []
    for t in field.terms:
        poly = t.polynomial
        for _ in range(order):
            poly = envelope_derivative(poly, t, xi)
        terms.append(GaussianTerm(t.coefficient, poly, t.mean, t.precision))
    return AnalyticField(field.dimension, terms)
