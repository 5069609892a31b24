"""The pruned difference sweep against the two-step reference it replaced,
and the line bounds that decide which (step, node) pairs it skips."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affsob import (AnalyticField, NumericalFailureError, QuadratureBundle,
                    RadialSpec, SmoothnessParams, directional_profile)
from affsob import fields
from affsob.fields import (_SWEEP_BLOCK, GaussianTerm, Polynomial,
                           _group_bounds, _step_groups, _taylor_shift,
                           multi_indices)
from affsob.quadrature import RadialQuadrature, directional_box
from oracles import directional_derivative


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


def _box_inputs(field, xi, order, dimension):
    """A directional box's nodes and weights and the radial rule's steps up
    to its separation scale, at a size the two-step reference can take."""
    box, t_sep = directional_box(field, xi, order,
                                 node_scale=0.5 if dimension == 2 else 0.25)
    return box.nodes, box.weights, RadialQuadrature.for_range(
        RadialSpec(panels=12), t_sep).nodes


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       dimension=st.sampled_from([2, 3]),
       n_terms=st.integers(1, 3),
       degree=st.integers(0, 3),
       order=st.sampled_from([1, 2, 4]),
       p=st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.0]),
       points=st.sampled_from([3001, 700, "box"]))
@example(seed=5, dimension=2, n_terms=2, degree=1, order=2, p=3.0,
         points=_SWEEP_BLOCK + 4000)
# 1200 nodes give 54-row blocks of 27-row pieces and a 28-row partial
# block, so the middle line of the even orders meets a block edge and a
# piece edge inside the partial block
@example(seed=17, dimension=2, n_terms=3, degree=3, order=2, p=3.0,
         points=1200)
@example(seed=29, dimension=3, n_terms=3, degree=3, order=4, p=1.5,
         points=1200)
# a directional box on the radial rule's steps, where most pairs are pruned
@example(seed=3, dimension=2, n_terms=1, degree=0, order=1, p=3.0,
         points="box")
@example(seed=11, dimension=2, n_terms=2, degree=2, order=2, p=1.0,
         points="box")
@example(seed=23, dimension=3, n_terms=3, degree=3, order=1, p=1.5,
         points="box")
@example(seed=31, dimension=2, n_terms=3, degree=3, order=4, p=3.0,
         points="box")
def test_fused_sweep_matches_two_step_reference(seed, dimension, n_terms,
                                                degree, order, p, points):
    rng = np.random.default_rng(seed)
    field = _random_field(rng, dimension, n_terms, degree)
    xi = rng.standard_normal(dimension)
    xi /= np.linalg.norm(xi)
    if points == "box":
        nodes, weights, ts = _box_inputs(field, xi, order, dimension)
        K = ts.shape[0]
    else:
        nodes = rng.uniform(-4.0, 4.0, (points, dimension))
        weights = rng.uniform(0.0, 1.0, points)
        rows = max(1, _SWEEP_BLOCK // points)
        # one whole block plus a partial one (or three single-row blocks
        # when a row of nodes is larger than a block)
        K = rows + rows // 2 + 1 if rows > 1 else 3
        ts = np.geomspace(0.05, 4.0, K)
    got = field.difference_lp_samples(xi, ts, order, p, nodes, weights)
    want = two_step_difference_lp_samples(field, xi, ts, order, p, nodes,
                                          weights)
    assert got.shape == (K,)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def _flat_line_values(terms, taus, order=0):
    """d^order/dtau^order of the lines tau -> sum exp(-a/2 - tau b) P(tau)
    that line terms with c = 0 describe, shape (K, P), by Leibniz's rule:
    exp(-a/2 - tau b) sum_j C(order, j) (-b)^(order - j) P^(j)(tau)."""
    tau = np.asarray(taus, dtype=float)[:, None]
    total = np.zeros((tau.shape[0], terms[0][0].shape[0]))
    for neg_half_a, b, half_c, rows in terms:
        assert half_c == 0.0
        factor = sum(math.comb(order, j) * (-b) ** (order - j)
                     * sum(math.perm(k, j) * rows[k] * tau ** (k - j)
                           for k in range(j, rows.shape[0]))
                     for j in range(min(order, rows.shape[0] - 1) + 1))
        total += np.exp(neg_half_a - tau * b) * factor
    return total


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       dimension=st.sampled_from([2, 3]),
       n_terms=st.integers(1, 3),
       degree=st.integers(0, 3),
       order=st.integers(1, 4),
       flat=st.booleans())
@example(seed=7, dimension=2, n_terms=1, degree=3, order=3, flat=True)
@example(seed=8, dimension=3, n_terms=1, degree=2, order=1, flat=True)
def test_group_bounds_cover_every_literal_difference(seed, dimension,
                                                     n_terms, degree, order,
                                                     flat):
    rng = np.random.default_rng(seed)
    field = _random_field(rng, dimension, n_terms, degree)
    xi = rng.standard_normal(dimension)
    xi /= np.linalg.norm(xi)
    nodes = rng.uniform(-5.0, 5.0, (300, dimension))
    terms = field._line_terms(nodes, xi)
    if flat:
        # c = 0, lines without Gaussian decay: rounding can take c there
        # for a precision near the positive definite floor
        terms = [(neg_half_a, b, 0.0, rows)
                 for neg_half_a, b, _, rows in terms]

        def line(sigma):
            return _flat_line_values(terms, sigma)

        def derivative_line(sigma):
            return _flat_line_values(terms, sigma, order)
    else:
        derivative = directional_derivative(field, xi, order)

        def line(sigma):
            return field.line_values(nodes, xi, sigma)

        def derivative_line(sigma):
            return derivative.line_values(nodes, xi, sigma)
    ts = np.geomspace(0.05, 6.0, 48)
    steps = [(l - order / 2.0, math.comb(order, l) * (-1.0) ** (order - l))
             for l in range(order + 1)]
    delta = sum(coeff * line(offset * ts) for offset, coeff in steps)
    groups = _step_groups(ts.shape[0])
    reach = 0.5 * order * np.array([ts[rows].max() for rows in groups])
    large, small = _group_bounds(terms, reach, order)
    for rows, rho, large_g, small_g in zip(groups, reach, large, small):
        # the literal difference carries rounding of a few units of the
        # size of its shifted values, which large bounds
        bound = np.minimum(large_g, ts[rows, None] ** order * small_g)
        slack = 8.0 * np.finfo(float).eps * large_g
        assert np.all(np.abs(delta[rows]) <= bound * (1.0 + 1e-12) + slack)
        # and each bound covers its function sampled along the segment
        sigma = np.linspace(-rho, rho, 101)
        assert np.all(2.0 ** order * np.abs(line(sigma))
                      <= large_g * (1.0 + 1e-12))
        assert np.all(np.abs(derivative_line(sigma))
                      <= small_g * (1.0 + 1e-12) + 1e-300)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), degree=st.integers(0, 6))
def test_taylor_shift_rewrites_the_rows_about_the_shift(seed, degree):
    rng = np.random.default_rng(seed)
    rows = rng.uniform(-2.0, 2.0, (degree + 1, 5))
    shift = rng.uniform(-3.0, 3.0, 5)
    u = rng.uniform(-2.0, 2.0, 5)
    got = sum(row * u ** k for k, row in enumerate(_taylor_shift(rows, shift)))
    want = sum(row * (shift + u) ** k for k, row in enumerate(rows))
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)


def test_gaussian_sweep_skips_most_pairs(monkeypatch):
    # a Gaussian at p = 3 on its directional box and the radial rule: most
    # (step, node) pairs sit where both shifted copies are below rounding
    field = AnalyticField.gaussian(2, precision=[[2.0, 0.5], [0.5, 1.0]])
    xi = np.array([0.6, 0.8])
    box, t_sep = directional_box(field, xi, 1, node_scale=36 / 96)
    ts = RadialQuadrature.for_range(RadialSpec(panels=16), t_sep).nodes
    pairs = []
    original = fields._sum_lines

    def spy(terms, taus, buffers):
        pairs.append(taus.shape[0] * terms[0][0].shape[0])
        return original(terms, taus, buffers)

    monkeypatch.setattr(fields, "_sum_lines", spy)
    got = field.difference_lp_samples(xi, ts, 1, 3.0, box.nodes, box.weights)
    # order 1 evaluates two shifted lines per (step, node) pair
    assert sum(pairs) < 0.5 * 2 * ts.shape[0] * box.weights.shape[0]
    monkeypatch.setattr(fields, "_sum_lines", original)
    want = two_step_difference_lp_samples(field, xi, ts, 1, 3.0, box.nodes,
                                          box.weights)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_rows_that_fail_the_check_sweep_their_dropped_nodes(monkeypatch):
    # a drop share of one drops far more than the check allows, so most
    # rows sweep their dropped nodes as well, and every sample still agrees
    monkeypatch.setattr(fields, "_DROP_SHARE", 1.0)
    rng = np.random.default_rng(4)
    field = _random_field(rng, 2, 2, 2)
    xi = np.array([0.8, -0.6])
    nodes, weights, ts = _box_inputs(field, xi, 2, 2)
    got = field.difference_lp_samples(xi, ts, 2, 1.5, nodes, weights)
    want = two_step_difference_lp_samples(field, xi, ts, 2, 1.5, nodes,
                                          weights)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("count", [0, 1, 2, 3, 7, 96, 241])
def test_step_groups_cover_the_steps_in_order(count):
    groups = _step_groups(count)
    assert len(groups) <= fields._SWEEP_GROUPS
    assert all(rows.shape[0] > 0 for rows in groups)
    joined = np.concatenate(groups) if groups else np.arange(0)
    assert np.array_equal(joined, np.arange(count))


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


def test_overflowing_bound_keeps_every_node(monkeypatch):
    # the bounds of a field whose sum overflows are not finite, so no node
    # is dropped (_drop_plan gives None) and the sweep over every node
    # raises as the reference does; 8 steps fill all three step groups
    plans = []
    original = fields._drop_plan

    def spy(*args):
        plans.append(original(*args))
        return plans[-1]

    monkeypatch.setattr(fields, "_drop_plan", spy)
    big = AnalyticField.gaussian(2, coefficient=1e308)
    field = big + big
    nodes = np.array([[0.0, 0.0], [0.5, 0.0], [3.0, 1.0]])
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericalFailureError, match="non-finite"):
        field.difference_lp_samples(np.array([1.0, 0.0]),
                                    np.geomspace(0.1, 1.0, 8), 1, 3.0, nodes,
                                    np.ones(3))
    assert plans == [None]


def test_field_without_terms_sweeps_to_zeros():
    empty = AnalyticField(2, [])
    nodes = np.array([[0.0, 0.0], [1.0, -1.0]])
    samples = empty.difference_lp_samples(np.array([1.0, 0.0]),
                                          np.array([0.1, 1.0]), 2, 3.0,
                                          nodes, np.ones(2))
    assert np.array_equal(samples, np.zeros(2))
    # the benchmark's base tier
    base = QuadratureBundle.default(2, box_nodes=36, sphere_resolution=32,
                                    radial_spec=RadialSpec(panels=16))
    profile = directional_profile(empty, SmoothnessParams(1.5, 3.0), base)
    assert np.array_equal(profile.values, np.zeros_like(profile.values))


def test_line_values_match_pointwise_evaluation():
    # the reference's line values against plain evaluation at shifted points
    rng = np.random.default_rng(3)
    field = _random_field(rng, 2, 3, 3)
    xi = np.array([0.6, -0.8])
    nodes = rng.uniform(-3.0, 3.0, (50, 2))
    taus = np.linspace(-2.0, 2.0, 7)
    got = field.line_values(nodes, xi, taus)
    want = np.array([field.evaluate(nodes + tau * xi) for tau in taus])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)
