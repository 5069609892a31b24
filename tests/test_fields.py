"""Closed-form fields: evaluation, calculus, composition, restriction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affsob import (AnalyticField, DimensionMismatchError, GridField,
                    SingularTransformError, SmoothnessParams)
from affsob.fields import (Polynomial, _taylor_rows, difference_stencil,
                           multi_indices, multinomial_coefficient)
from affsob.seminorms import _separated_lobes_constant
from oracles import directional_derivative, polynomial_directional_derivative
from test_sweep import _random_field


def test_polynomial_evaluates_termwise():
    p = Polynomial(2, {(0, 0): 1.0, (1, 2): 2.0})
    x = np.array([[0.5, -1.0], [2.0, 3.0]])
    np.testing.assert_allclose(p.evaluate(x),
                               1.0 + 2.0 * x[:, 0] * x[:, 1] ** 2)
    assert p.degree == 3
    assert not p.is_zero


def test_polynomial_rejects_bad_exponents():
    with pytest.raises(ValueError):
        Polynomial(2, {(-1, 0): 1.0})
    with pytest.raises(DimensionMismatchError):
        Polynomial(2, {(1, 0, 0): 1.0})


def test_polynomial_algebra():
    p = Polynomial(2, {(1, 0): 1.0})
    q = Polynomial(2, {(0, 1): 3.0})
    x = np.array([[1.5, -0.5]])
    np.testing.assert_allclose((p + q).evaluate(x), 1.5 - 1.5)
    np.testing.assert_allclose((p * q).evaluate(x), 1.5 * -1.5)
    np.testing.assert_allclose(p.scaled(4.0).evaluate(x), 6.0)
    assert Polynomial.constant(3, 2.5).evaluate(np.zeros(3)) == 2.5


def test_polynomial_derivatives():
    p = Polynomial(2, {(2, 1): 1.0})          # x^2 y
    dx = polynomial_directional_derivative(p, np.array([1.0, 0.0]))
    x = np.array([[1.2, 0.7]])
    np.testing.assert_allclose(dx.evaluate(x), 2 * 1.2 * 0.7)
    xi = np.array([0.6, 0.8])
    dxi = polynomial_directional_derivative(p, xi)
    want = 0.6 * 2 * 1.2 * 0.7 + 0.8 * 1.2 ** 2
    np.testing.assert_allclose(dxi.evaluate(x), want)


def test_polynomial_compose_linear():
    p = Polynomial(2, {(1, 1): 1.0})
    m = np.array([[2.0, 1.0], [0.0, 0.5]])
    x = np.array([[0.3, -1.1]])
    np.testing.assert_allclose(p.compose_linear(m).evaluate(x),
                               p.evaluate(x @ m.T))


def test_gaussian_closed_form():
    f = AnalyticField.gaussian(2)
    pts = np.array([[0.0, 0.0], [1.0, 2.0], [-0.5, 0.25]])
    np.testing.assert_allclose(f(pts), np.exp(-0.5 * (pts ** 2).sum(axis=1)),
                               rtol=1e-14)
    g = AnalyticField.gaussian(2, precision=np.diag([4.0, 1.0]),
                               mean=np.array([1.0, 0.0]), coefficient=2.0)
    d = pts - np.array([1.0, 0.0])
    want = 2.0 * np.exp(-0.5 * (4 * d[:, 0] ** 2 + d[:, 1] ** 2))
    np.testing.assert_allclose(g(pts), want, rtol=1e-14)


def test_gaussian_rejects_indefinite_precision():
    with pytest.raises(ValueError):
        AnalyticField.gaussian(2, precision=np.diag([1.0, -1.0]))
    # a flat direction is refused too: such a field lies in no L^p
    with pytest.raises(ValueError, match="positive definite"):
        AnalyticField.gaussian(2, precision=np.diag([1.0, 0.0]))
    # past condition ~1/eps the smallest eigenvalue is rounding noise
    c, s = math.cos(0.4), math.sin(0.4)
    rot = np.array([[c, -s], [s, c]])
    with pytest.raises(ValueError, match="positive definite"):
        AnalyticField.gaussian(2, precision=rot @ np.diag([1e-20, 1e20]) @ rot.T)


def test_field_sum_and_scaling():
    f = AnalyticField.gaussian(2)
    g = AnalyticField.gaussian(2, precision=2.0 * np.eye(2))
    pts = np.array([[0.4, -0.9], [1.0, 1.0]])
    np.testing.assert_allclose((f + g)(pts), f(pts) + g(pts), rtol=1e-14)
    np.testing.assert_allclose(f.scaled(-2.5)(pts), -2.5 * f(pts), rtol=1e-14)
    with pytest.raises(DimensionMismatchError):
        f + AnalyticField.gaussian(3)


def test_affine_compose_is_evaluation_composition(rng):
    f = AnalyticField.gaussian(2, precision=np.diag([4.0, 1.0]))
    m = np.array([[1.3, 0.4], [-0.2, 0.9]])
    pts = rng.standard_normal((20, 2))
    np.testing.assert_allclose(f.affine_compose(m)(pts), f(pts @ m.T),
                               rtol=1e-12)


def test_affine_compose_rejects_singular():
    f = AnalyticField.gaussian(2)
    with pytest.raises(SingularTransformError):
        f.affine_compose(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_restrict_keeps_the_named_axis_free():
    # regression: restrict(axis=k) must freeze the other coordinates, so the
    # 1-D piece sweeps along axis k itself
    f = AnalyticField.gaussian(2, precision=np.diag([4.0, 1.0]))
    u = 0.37
    ts = np.linspace(-2.0, 2.0, 9)
    piece0 = f.restrict(axis=0, fixed=np.array([u]))
    piece1 = f.restrict(axis=1, fixed=np.array([u]))
    np.testing.assert_allclose(piece0(ts[:, None]),
                               f(np.stack([ts, np.full_like(ts, u)], axis=1)),
                               rtol=1e-13)
    np.testing.assert_allclose(piece1(ts[:, None]),
                               f(np.stack([np.full_like(ts, u), ts], axis=1)),
                               rtol=1e-13)


def test_restrict_handles_polynomials_and_cross_terms():
    poly = Polynomial(2, {(1, 1): 1.0, (0, 2): 0.5})
    prec = np.array([[2.0, 0.6], [0.6, 1.0]])
    f = AnalyticField.gaussian(2, precision=prec, poly=poly)
    u = -0.8
    piece = f.restrict(axis=0, fixed=np.array([u]))
    ts = np.linspace(-1.5, 1.5, 7)
    np.testing.assert_allclose(piece(ts[:, None]),
                               f(np.stack([ts, np.full_like(ts, u)], axis=1)),
                               rtol=1e-12)
    with pytest.raises(DimensionMismatchError):
        f.restrict(axis=0, fixed=np.array([1.0, 2.0]))


def test_directional_derivative_matches_finite_difference():
    f = AnalyticField.gaussian(2, poly=Polynomial(2, {(1, 0): 1.0}))
    xi = np.array([0.6, 0.8])
    x = np.array([0.3, -0.4])
    h = 1e-6
    want = (f(x + h * xi) - f(x - h * xi)) / (2 * h)
    got = directional_derivative(f, xi)(x)
    assert got == pytest.approx(want, rel=1e-8)


@settings(max_examples=20, deadline=None)
@given(c=st.floats(min_value=-5.0, max_value=5.0,
                   allow_nan=False, allow_infinity=False))
def test_scaled_is_linear_in_the_coefficient(c):
    f = AnalyticField.gaussian(2)
    x = np.array([0.2, 0.9])
    assert f.scaled(c)(x) == pytest.approx(c * f(x), rel=1e-12, abs=1e-300)


def test_smoothness_params_validation():
    with pytest.raises(ValueError, match="s must be positive"):
        SmoothnessParams(0.0, 2.0)
    with pytest.raises(ValueError, match="p must be at least 1"):
        SmoothnessParams(1.0, 0.5)


def test_smoothness_params_branches():
    assert SmoothnessParams(0.5, 2.0).fractional
    assert not SmoothnessParams(1.0, 2.0).fractional
    assert not SmoothnessParams(1.0 + 1e-13, 2.0).fractional
    assert SmoothnessParams(0.5, 2.0).difference_order == 1
    assert SmoothnessParams(1.5, 2.0).difference_order == 2
    assert SmoothnessParams(2.0, 2.0).difference_order == 2
    assert SmoothnessParams(2.0, 1.0).excluded
    assert not SmoothnessParams(1.0, 1.0).excluded
    assert not SmoothnessParams(1.5, 1.0).excluded


def test_multi_indices_and_multinomial():
    idx = multi_indices(2, 2)
    assert idx == [(0, 2), (1, 1), (2, 0)]
    assert multinomial_coefficient((1, 1)) == 2.0
    assert multinomial_coefficient((2, 0)) == 1.0
    assert multinomial_coefficient((1, 1, 1)) == 6.0
    assert len(multi_indices(3, 2)) == 6


def _grid(values, half=3.0):
    res = values.shape[0]
    spacing = np.full(values.ndim, 2.0 * half / (res - 1))
    return GridField(np.full(values.ndim, -half), spacing, values)


def test_grid_field_dimension_and_volume():
    xs = np.linspace(-3.0, 3.0, 31)
    mesh = np.meshgrid(xs, xs, indexing="ij")
    g = _grid(np.exp(-0.5 * (mesh[0] ** 2 + mesh[1] ** 2)))
    assert g.dimension == 2
    assert g.cell_volume == pytest.approx((6.0 / 30) ** 2, rel=1e-14)


def test_grid_field_shape_validation():
    with pytest.raises(DimensionMismatchError):
        GridField(np.zeros(3), np.ones(2), np.zeros((4, 4)))
    with pytest.raises(DimensionMismatchError):
        GridField(np.zeros(2), np.ones(3), np.zeros((4, 4)))


def _term_sum(field, points):
    """sum of c q(x) exp(-(x-mu)^T A (x-mu)/2) over the terms, literally."""
    total = np.zeros(points.shape[0])
    for t in field.terms:
        d = points - t.mean
        total += t.coefficient * t.polynomial.evaluate(points) * np.exp(
            -0.5 * np.einsum("pi,ij,pj->p", d, t.precision, d))
    return total


def _chained_partials(field, order, points):
    """Reference for the partials: d^alpha f through one directional
    derivative field per axis step of alpha, evaluated at the points; at
    order 0 the terms' formula, since evaluate() is partial_values at order
    0."""
    if order == 0:
        return _term_sum(field, points)[None, :]
    axes = np.eye(field.dimension)
    rows = []
    for alpha in multi_indices(field.dimension, order):
        g = field
        for axis, reps in enumerate(alpha):
            for _ in range(reps):
                g = directional_derivative(g, axes[axis])
        rows.append(g(points))
    return np.array(rows)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       dimension=st.sampled_from([1, 2, 3]),
       n_terms=st.integers(1, 3),
       degree=st.integers(0, 3),
       order=st.integers(0, 4))
def test_partial_values_match_chained_directional_derivatives(
        seed, dimension, n_terms, degree, order):
    rng = np.random.default_rng(seed)
    field = _random_field(rng, dimension, n_terms, degree)
    points = rng.uniform(-3.0, 3.0, (40, dimension))
    got = field.partial_values(points, order)
    want = _chained_partials(field, order, points)
    assert got.shape == (len(multi_indices(dimension, order)), 40)
    np.testing.assert_allclose(got, want, rtol=0.0,
                               atol=1e-12 * np.abs(want).max())


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       dimension=st.sampled_from([1, 2, 3]),
       degree=st.integers(0, 3),
       count=st.integers(1, 4))
def test_taylor_rows_match_the_symbolic_chain(seed, dimension, degree,
                                              count):
    # c units^-j (d_xi^j q) / j! from one set of partials, against d_xi
    # taken j times on the Polynomial; each direction has its own points
    rng = np.random.default_rng(seed)
    term = _random_field(rng, dimension, 1, degree).terms[0]
    directions = rng.standard_normal((count, dimension))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    units = rng.uniform(0.5, 2.0, count)
    points = rng.uniform(-3.0, 3.0, (count, 9, dimension))
    got = _taylor_rows(term, points.reshape(-1, dimension).T, directions,
                       units)
    want = np.empty((count, degree + 1, 9))
    for d, xi in enumerate(directions):
        q = term.polynomial
        for j in range(degree + 1):
            want[d, j] = term.coefficient * q.evaluate(points[d]) / (
                math.factorial(j) * units[d] ** j)
            q = polynomial_directional_derivative(q, xi)
    np.testing.assert_allclose(got, want, rtol=1e-12,
                               atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_difference_stencil_is_the_centered_difference(order):
    offsets, coeffs = np.array(difference_stencil(order)).T
    np.testing.assert_array_equal(offsets, np.arange(order + 1) - order / 2)
    # Delta^m annihilates the polynomials of degree below m, and takes u^m
    # to m!
    for i in range(order):
        assert np.sum(coeffs * offsets ** i) == 0.0
    assert np.sum(coeffs * offsets ** order) == math.factorial(order)
    assert np.sum(np.abs(coeffs)) == 2.0 ** order
    for p in (1.0, 1.5, 2.0, 3.0, 4.0):
        assert (np.sum(np.abs(coeffs) ** p)
                == pytest.approx(_separated_lobes_constant(order, p),
                                 rel=1e-15))


# dict reference of the polynomial arithmetic: exponent tuple -> coefficient

def _ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0.0) + c
    return out


def _ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = out.get(key, 0.0) + c1 * c2
    return out


def _ref_directional(a, xi):
    out = {}
    for e, c in a.items():
        for axis, power in enumerate(e):
            if power:
                key = e[:axis] + (power - 1,) + e[axis + 1:]
                out[key] = out.get(key, 0.0) + c * power * xi[axis]
    return out


def _ref_compose(a, matrix):
    n = matrix.shape[0]
    out = {}
    for e, c in a.items():
        term = {(0,) * n: c}
        for i, power in enumerate(e):
            linear = {tuple(int(k == j) for k in range(n)): matrix[i, j]
                      for j in range(n)}
            for _ in range(power):
                term = _ref_mul(term, linear)
        out = _ref_add(out, term)
    return out


def _assert_matches(poly, ref):
    got = dict(poly.items())
    scale = max([abs(c) for c in ref.values()] + [1.0])
    ref = {e: c for e, c in ref.items() if abs(c) > 1e-13 * scale}
    assert set(got) >= set(ref)
    for e, c in got.items():
        assert c == pytest.approx(ref.get(e, 0.0), rel=1e-12,
                                  abs=1e-13 * scale)
    assert list(got) == sorted(got)


def _random_coeffs(rng, dimension, count):
    return {tuple(int(x) for x in rng.integers(0, 4, dimension)):
            float(rng.choice([0.0, rng.uniform(-2.0, 2.0)], p=[0.2, 0.8]))
            for _ in range(count)}


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       dimension=st.sampled_from([1, 2, 3]),
       sizes=st.tuples(st.integers(0, 6), st.integers(0, 6)))
def test_polynomial_array_ops_match_dict_reference(seed, dimension, sizes):
    rng = np.random.default_rng(seed)
    a = _random_coeffs(rng, dimension, sizes[0])
    b = _random_coeffs(rng, dimension, sizes[1])
    p, q = Polynomial(dimension, a), Polynomial(dimension, b)
    xi = rng.standard_normal(dimension)
    matrix = rng.standard_normal((dimension, dimension))
    axis = int(rng.integers(dimension))
    _assert_matches(p, a)
    _assert_matches(p + q, _ref_add(a, b))
    _assert_matches(p * q, _ref_mul(a, b))
    _assert_matches(
        polynomial_directional_derivative(p, np.eye(dimension)[axis]),
        _ref_directional(a, np.eye(dimension)[axis]))
    _assert_matches(polynomial_directional_derivative(p, xi),
                    _ref_directional(a, xi))
    _assert_matches(p.compose_linear(matrix), _ref_compose(a, matrix))
    x = rng.uniform(-2.0, 2.0, (7, dimension))
    want = sum(c * np.prod(x ** np.array(e), axis=1) for e, c in a.items())
    np.testing.assert_allclose(p.evaluate(x), want + np.zeros(7),
                               rtol=1e-12, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       dimension=st.sampled_from([2, 3]),
       n_terms=st.integers(1, 3),
       degree=st.integers(0, 3))
def test_restrict_matches_pointwise_evaluation(seed, dimension, n_terms,
                                               degree):
    rng = np.random.default_rng(seed)
    field = _random_field(rng, dimension, n_terms, degree)
    axis = int(rng.integers(dimension))
    fixed = rng.uniform(-1.5, 1.5, dimension - 1)
    ts = np.linspace(-3.0, 3.0, 13)
    points = np.empty((ts.shape[0], dimension))
    points[:, axis] = ts
    points[:, [i for i in range(dimension) if i != axis]] = fixed
    want = field(points)
    got = field.restrict(axis=axis, fixed=fixed)(ts[:, None])
    np.testing.assert_allclose(got, want, rtol=0.0,
                               atol=1e-12 * np.abs(want).max())
