"""The fused difference sweep against the two-step reference it replaced."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affsob import AnalyticField, NumericalFailureError
from affsob.fields import _SWEEP_BLOCK, GaussianTerm, Polynomial, multi_indices


def two_step_difference_lp_samples(field, xi, ts, order, p, nodes, weights):
    """Reference: every shifted line value as one (order+1)*K by P matrix,
    then the centered difference, |Delta|^p and the weighted sum."""
    ts = np.asarray(ts, dtype=float)
    coeffs = np.array([math.comb(order, l) * (-1.0) ** (order - l)
                       for l in range(order + 1)])
    K = ts.shape[0]
    taus = np.concatenate([(l - order / 2.0) * ts for l in range(order + 1)])
    vals = field.line_values(nodes, xi, taus)
    delta = np.zeros((K, nodes.shape[0]))
    for l in range(order + 1):
        delta += coeffs[l] * vals[l * K: (l + 1) * K]
    if not np.all(np.isfinite(delta)):
        raise NumericalFailureError("non-finite difference values")
    return np.abs(delta) ** p @ weights


def _random_field(rng, dimension, n_terms, degree):
    """Gaussian-polynomial sum with condition numbers at most 4."""
    terms = []
    for _ in range(n_terms):
        q, _ = np.linalg.qr(rng.standard_normal((dimension, dimension)))
        eig = rng.uniform(0.5, 2.0, dimension)
        precision = q @ np.diag(eig) @ q.T
        monomials = [a for k in range(degree + 1)
                     for a in multi_indices(dimension, k)]
        chosen = rng.choice(len(monomials), size=min(3, len(monomials)),
                            replace=False)
        poly = {monomials[i]: rng.uniform(-1.0, 1.0) for i in chosen}
        poly[(degree,) + (0,) * (dimension - 1)] = 1.0
        terms.append(GaussianTerm(rng.uniform(0.5, 1.5) * rng.choice([-1, 1]),
                                  Polynomial(dimension, poly),
                                  rng.uniform(-1.0, 1.0, dimension),
                                  0.5 * (precision + precision.T)))
    return AnalyticField(dimension, terms)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       dimension=st.sampled_from([2, 3]),
       n_terms=st.integers(1, 3),
       degree=st.integers(0, 3),
       order=st.sampled_from([1, 2, 4]),
       p=st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.0]),
       points=st.sampled_from([3001, 700]))
@example(seed=5, dimension=2, n_terms=2, degree=1, order=2, p=3.0,
         points=_SWEEP_BLOCK + 4000)
def test_fused_sweep_matches_two_step_reference(seed, dimension, n_terms,
                                                degree, order, p, points):
    rng = np.random.default_rng(seed)
    field = _random_field(rng, dimension, n_terms, degree)
    xi = rng.standard_normal(dimension)
    xi /= np.linalg.norm(xi)
    nodes = rng.uniform(-4.0, 4.0, (points, dimension))
    weights = rng.uniform(0.0, 1.0, points)
    rows = max(1, _SWEEP_BLOCK // points)
    # one whole block plus a partial one (or three single-row blocks when a
    # row of nodes is larger than a block)
    K = rows + rows // 2 + 1 if rows > 1 else 3
    ts = np.geomspace(0.05, 4.0, K)
    got = field.difference_lp_samples(xi, ts, order, p, nodes, weights)
    want = two_step_difference_lp_samples(field, xi, ts, order, p, nodes,
                                          weights)
    assert got.shape == (K,)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("kernel", ["fused", "reference"])
def test_overflowing_difference_raises(kernel):
    # each term alone is finite; their sum overflows to inf
    big = AnalyticField.gaussian(2, coefficient=1e308)
    field = big + big
    nodes = np.array([[0.0, 0.0], [0.5, 0.0], [3.0, 1.0]])
    weights = np.ones(3)
    args = (np.array([1.0, 0.0]), np.array([0.1, 1.0]), 1, 2.0, nodes,
            weights)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericalFailureError, match="non-finite"):
        if kernel == "fused":
            field.difference_lp_samples(*args)
        else:
            two_step_difference_lp_samples(field, *args)


def test_line_values_match_pointwise_evaluation():
    # the reference's line values against plain evaluation at shifted points
    rng = np.random.default_rng(3)
    field = _random_field(rng, 2, 3, 3)
    xi = np.array([0.6, -0.8])
    nodes = rng.uniform(-3.0, 3.0, (50, 2))
    taus = np.linspace(-2.0, 2.0, 7)
    got = field.line_values(nodes, xi, taus, max_block=120)
    want = np.array([field.evaluate(nodes + tau * xi) for tau in taus])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)
