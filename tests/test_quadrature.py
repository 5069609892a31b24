"""Quadrature rules: spheres, boxes, singular radial panels, pushforwards."""

import math

import numpy as np
import pytest
import scipy.integrate

from affsob import (AnalyticField, BoxQuadrature, QuadratureBundle,
                    RadialQuadrature, SphereQuadrature,
                    build_sphere_quadrature, pushforward_weight)
from affsob.quadrature import (_leggauss, directional_box,
                               gauss_legendre_nodes, integrate_box,
                               radial_from_samples)


def test_sphere_areas_are_exact():
    assert build_sphere_quadrature(2, 64).area == pytest.approx(2 * math.pi,
                                                                rel=1e-14)
    assert build_sphere_quadrature(3, 24).area == pytest.approx(4 * math.pi,
                                                                rel=1e-12)


def test_sphere_moments():
    circle = build_sphere_quadrature(2, 64)
    assert circle.integrate(circle.nodes[:, 0] ** 2) == pytest.approx(
        math.pi, rel=1e-12)
    assert abs(circle.integrate(circle.nodes[:, 0])) < 1e-12

    sphere = build_sphere_quadrature(3, 24)
    assert sphere.integrate(sphere.nodes[:, 2] ** 2) == pytest.approx(
        4 * math.pi / 3, rel=1e-10)
    assert sphere.integrate(sphere.nodes[:, 0] ** 2 * sphere.nodes[:, 1] ** 2
                            ) == pytest.approx(4 * math.pi / 15, rel=1e-10)


def test_sphere_nodes_are_antipodally_paired():
    sph = build_sphere_quadrature(2, 30)
    # odd resolutions are rounded up so -node is always a node
    dots = sph.nodes @ sph.nodes.T
    assert np.all(dots.min(axis=1) < -1.0 + 1e-12)


def searched_antipode_map(nodes):
    """Reference: for each node the index of the node nearest its negation,
    or None if some node has no negation within 1e-9."""
    out = np.full(nodes.shape[0], -1, dtype=int)
    for i in range(nodes.shape[0]):
        d = np.linalg.norm(nodes + nodes[i], axis=1)
        j = int(np.argmin(d))
        if d[j] < 1e-9:
            out[i] = j
    return out if np.all(out >= 0) else None


@pytest.mark.parametrize("dimension, resolutions",
                         [(2, range(4, 129)), (3, range(4, 25))])
def test_constructed_antipode_map_matches_search(dimension, resolutions):
    for resolution in resolutions:
        sph = build_sphere_quadrature(dimension, resolution)
        want = searched_antipode_map(sph.nodes)
        assert want is not None
        np.testing.assert_array_equal(sph.antipode, want)


def test_sphere_from_arbitrary_nodes_has_no_antipode_map():
    sph = SphereQuadrature(np.array([[0.6, 0.8]]), np.array([1.0]))
    assert sph.antipode is None


def test_cached_gauss_legendre_rules_are_shared_and_read_only():
    x, w = _leggauss(12)
    assert _leggauss(12)[0] is x
    with pytest.raises(ValueError):
        x[0] = 0.0
    nodes, weights = gauss_legendre_nodes(1.0, 12)
    nodes[0] = 5.0
    weights *= 2.0
    x_np, w_np = np.polynomial.legendre.leggauss(12)
    np.testing.assert_array_equal(_leggauss(12)[0], x_np)
    np.testing.assert_array_equal(_leggauss(12)[1], w_np)


def test_sphere_validation():
    with pytest.raises(ValueError):
        build_sphere_quadrature(4, 16)
    with pytest.raises(ValueError):
        build_sphere_quadrature(2, 3)


def test_gauss_legendre_polynomial_exactness():
    x, w = gauss_legendre_nodes(2.0, 6)
    for k in (0, 2, 4, 10):
        got = float(w @ x ** k)
        want = 2.0 * 2.0 ** (k + 1) / (k + 1) if k % 2 == 0 else 0.0
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_box_gaussian_integral():
    f = AnalyticField.gaussian(2)
    box = BoxQuadrature.fitted(f, base_nodes=48)
    total = integrate_box(lambda x: f(x) ** 2, box)
    assert total == pytest.approx(math.pi, rel=1e-12)


def test_box_cube_integrates_its_volume():
    box = BoxQuadrature.cube(2, half_width=3.0, nodes_per_axis=16)
    assert box.nodes.shape == (256, 2)
    ones = integrate_box(np.ones(box.nodes.shape[0]), box)
    assert ones == pytest.approx(36.0, rel=1e-12)


def test_radial_quadrature_matches_scipy():
    rq = RadialQuadrature(1e-3, 50.0, panels=30)
    g = lambda t: np.exp(-t) * t ** 2
    got = float(rq.weights @ g(rq.nodes))
    want, _ = scipy.integrate.quad(g, 1e-3, 50.0)
    assert got == pytest.approx(want, rel=1e-10)


def test_integrate_radial_closed_form():
    # weight t^{-sp-1} = t^{-2} against g(t) = t^2/(1+t^2): integral pi/2;
    # the range reaches 4e8, where g is at its limit 1 up to 1e-17, and the
    # far field closes the integral with that limit.  The interval holds
    # half the modelled head, t_min / 2, so the rule starts at 1e-7 (about
    # six panels per decade, as before)
    s, p, order = 0.5, 2.0, 1
    rq = RadialQuadrature(1e-7, 4e8, panels=90)
    samples = rq.nodes ** 2 / (1.0 + rq.nodes ** 2)
    got, tail = radial_from_samples(samples, s, p, order, rq, far_constant=1.0)
    assert got == pytest.approx(math.pi / 2, rel=1e-6)
    assert 0 <= tail < 1e-6


def test_radial_validation():
    with pytest.raises(ValueError):
        RadialQuadrature(0.0, 1.0, 8)
    with pytest.raises(ValueError):
        RadialQuadrature(2.0, 1.0, 8)


def test_directional_box_radial_symmetry():
    f = AnalyticField.gaussian(2)
    box_a, sep_a = directional_box(f, np.array([1.0, 0.0]), order=1)
    box_b, sep_b = directional_box(f, np.array([0.6, 0.8]), order=1)
    assert sep_a == pytest.approx(sep_b, rel=1e-12)
    assert box_a.weights.sum() == pytest.approx(box_b.weights.sum(), rel=1e-12)


def test_pushforward_weight_properties():
    omega = np.array([0.6, 0.8])
    assert pushforward_weight(np.eye(2), omega) == pytest.approx(1.0)
    theta = 0.7
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    assert pushforward_weight(rot, omega) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(ValueError):
        pushforward_weight(np.array([[1.0, 0.0], [0.0, 0.0]]),
                           np.array([0.0, 1.0]))


def test_pushforward_change_of_variables():
    sph = build_sphere_quadrature(2, 64)
    m = np.diag([1.6, 1.0 / 1.6])
    weights = np.array([pushforward_weight(m, om) for om in sph.nodes])
    images = sph.nodes @ m.T
    images /= np.linalg.norm(images, axis=1, keepdims=True)
    for g in (lambda z: np.ones(len(z)),
              lambda z: z[:, 0] ** 2,
              lambda z: np.exp(z[:, 1])):
        lhs = sph.integrate(g(images) * weights)
        rhs = sph.integrate(g(sph.nodes))
        assert lhs == pytest.approx(rhs, rel=1e-8)


def test_bundle_default_and_scaling():
    bundle = QuadratureBundle.default(2)
    finer = bundle.scaled(2.0)
    assert finer.sphere_resolution == 2 * bundle.sphere_resolution
    assert finer.box_nodes == 2 * bundle.box_nodes
    assert finer.radial_spec.panels == 2 * bundle.radial_spec.panels
    assert bundle.doubled().sphere_resolution == finer.sphere_resolution
    floor = bundle.scaled(0.01)
    assert floor.sphere_resolution >= 4
    assert floor.box_nodes >= 8
    assert floor.radial_spec.panels >= 4


def test_bundle_box_matches_field_support():
    bundle = QuadratureBundle.default(2)
    f = AnalyticField.gaussian(2)
    box = bundle.box_for(f)
    total = integrate_box(lambda x: f(x) ** 2, box)
    assert total == pytest.approx(math.pi, rel=1e-10)
