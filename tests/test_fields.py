"""Closed-form fields: evaluation, calculus, composition, restriction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affsob import (AnalyticField, DimensionMismatchError, GridField,
                    SingularTransformError, SmoothnessParams)
from affsob.fields import (Polynomial, multi_indices,
                           multinomial_coefficient)


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
    dx = p.partial_derivative(0)
    x = np.array([[1.2, 0.7]])
    np.testing.assert_allclose(dx.evaluate(x), 2 * 1.2 * 0.7)
    xi = np.array([0.6, 0.8])
    dxi = p.directional_derivative(xi)
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
    # semidefinite passes only when flat directions are explicitly allowed
    with pytest.raises(ValueError):
        AnalyticField.gaussian(2, precision=np.diag([1.0, 0.0]))
    AnalyticField.gaussian(2, precision=np.diag([1.0, 0.0]), flat_ok=True)
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
    got = f.directional_derivative(xi)(x)
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
    return GridField(np.full(values.ndim, -half), spacing, values,
                     support_radius=half)


def test_grid_field_evaluation_and_volume():
    xs = np.linspace(-3.0, 3.0, 31)
    mesh = np.meshgrid(xs, xs, indexing="ij")
    g = _grid(np.exp(-0.5 * (mesh[0] ** 2 + mesh[1] ** 2)))
    assert g.dimension == 2
    assert g.cell_volume == pytest.approx((6.0 / 30) ** 2, rel=1e-14)
    # exact at the nodes, zero outside the sampled box
    assert g(np.array([0.0, 0.0])) == pytest.approx(1.0, rel=1e-14)
    assert g(np.array([10.0, 0.0])) == 0.0
    # multilinear in between
    mid = g(np.array([xs[3] / 2 + xs[4] / 2, 0.0]))
    lo, hi = g(np.array([xs[3], 0.0])), g(np.array([xs[4], 0.0]))
    assert mid == pytest.approx(0.5 * (lo + hi), rel=1e-12)


def test_grid_field_compose_and_gradient():
    xs = np.linspace(-4.0, 4.0, 81)
    mesh = np.meshgrid(xs, xs, indexing="ij")
    g = _grid(np.exp(-0.5 * (mesh[0] ** 2 + mesh[1] ** 2)), half=4.0)
    theta = 0.3
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    composed = g.compose_affine(rot)
    pt = np.array([0.5, -0.25])
    assert composed(pt) == pytest.approx(g(rot @ pt), abs=5e-3)
    grads = g.gradient_arrays()
    assert len(grads) == 2 and grads[0].shape == g.values.shape


def test_grid_field_shape_validation():
    with pytest.raises(DimensionMismatchError):
        GridField(np.zeros(3), np.ones(2), np.zeros((4, 4)), 1.0)
    with pytest.raises(DimensionMismatchError):
        GridField(np.zeros(2), np.ones(3), np.zeros((4, 4)), 1.0)
