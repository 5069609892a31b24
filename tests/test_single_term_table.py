"""Odd- and fractional-p profiles of one Gaussian-polynomial term, from the
whitened line table that every direction shares, against the box sweep,
the exact even-p engine and the change-of-variables lemma."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affsob import (AnalyticField, NumericalFailureError, QuadratureBundle,
                    RadialSpec, standard_family)
from affsob import seminorms
from affsob.autocorrelation import exact_directional_energies
from affsob.fields import Polynomial, multi_indices
from affsob.seminorms import _single_term_energies, _swept_energies

# the inequality suite's fractional tier: box 36, sphere 32, 16 panels
BASE = QuadratureBundle.default(2, box_nodes=36, sphere_resolution=32,
                                radial_spec=RadialSpec(panels=16))
DIRECTIONS = np.array([[1.0, 0.0], [0.6, 0.8], [-0.28, 0.96]])


@pytest.mark.parametrize("s,p,rtol", [(0.5, 3.0, 1e-12), (0.75, 1.5, 1e-12),
                                      (0.5, 1.0, 1e-12), (1.5, 1.0, 1e-9),
                                      (1.5, 3.0, 1e-9)])
def test_hermite_matches_the_sweep(s, p, rtol):
    # hermite has A = I and mean 0, so its whitened rules are the sweep's
    # boxes and both share the fitted box's L^p mass: only rounding is
    # left, measured 1.3e-15 to 4.4e-14 at m = 1 and up to 6.2e-11 at m = 2
    hermite = standard_family()["hermite"]
    order = int(s) + 1
    got, tails = _single_term_energies(hermite, DIRECTIONS, s, p, order, BASE)
    want, want_tails = _swept_energies(hermite, DIRECTIONS, s, p, order, BASE)
    np.testing.assert_allclose(got, want, rtol=rtol)
    np.testing.assert_allclose(tails, want_tails, rtol=1e-6)


def _precision(rng, dimension):
    q, _ = np.linalg.qr(rng.standard_normal((dimension, dimension)))
    eig = np.exp(rng.uniform(-0.5, 0.5) + np.linspace(-1.0, 1.0, dimension)
                 * rng.uniform(0.0, 0.5 * np.log(10.0)))
    return q @ np.diag(eig) @ q.T


def _polynomial(rng, dimension, degree):
    coefficients = {}
    for level in range(degree + 1):
        for alpha in multi_indices(dimension, level):
            if level == degree or rng.random() < 0.6:
                coefficients[alpha] = rng.uniform(-1.0, 1.0)
    return Polynomial(dimension, coefficients)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), dimension=st.sampled_from([2, 3]),
       degree=st.integers(1, 3),
       s=st.sampled_from([0.3, 0.5, 0.75, 1.25, 1.7]))
def test_table_at_p4_matches_the_exact_engine(seed, dimension, degree, s):
    # forced at p = 4, where the engine is exact.  On the default 2-D tier
    # 30 draws were within 1.2e-12.  The default 3-D tier's cross rule, 6
    # nodes per unit, under-resolves exp(-2 |y|^2) and was up to 8e-3 off
    # (the sweep there is off as much), so 3-D draws take 72 box nodes,
    # where 12 draws were within 1.0e-8
    rng = np.random.default_rng(seed)
    precision = _precision(rng, dimension)
    assert np.linalg.cond(precision) <= 10.0 + 1e-9
    field = AnalyticField.gaussian(
        dimension, precision=precision, mean=rng.standard_normal(dimension),
        coefficient=rng.uniform(0.3, 3.0) * rng.choice([-1.0, 1.0]),
        poly=_polynomial(rng, dimension, degree))
    if dimension == 2:
        quads, rtol = QuadratureBundle.default(2, sphere_resolution=16), 1e-11
    else:
        quads, rtol = QuadratureBundle.default(3, box_nodes=72,
                                               sphere_resolution=8), 1e-7
    nodes = quads.sphere.nodes
    directions = nodes[rng.choice(nodes.shape[0], 2, replace=False)]
    order = int(s) + 1
    got, tails = _single_term_energies(field, directions, s, 4.0, order,
                                       quads)
    want, _ = exact_directional_energies(field, directions, s, 4.0, order)
    np.testing.assert_allclose(got, want, rtol=rtol)
    assert np.all(tails >= 0.0)


def _unimodular(rng):
    m = rng.standard_normal((2, 2))
    if np.linalg.det(m) < 0.0:
        m[:, 0] = -m[:, 0]
    return m / np.sqrt(np.linalg.det(m))


@pytest.mark.parametrize("s,p", [(0.5, 3.0), (1.5, 1.0), (0.75, 2.5)])
def test_table_is_covariant_under_unimodular_maps(monkeypatch, s, p):
    # D(f o M, xi) = |M xi|^(sp) D(f, M xi / |M xi|): in 2-D the whitened
    # problems of the two sides are the same up to y -> -y, which maps the
    # cross rule onto itself, so only rounding is left, as long as both
    # sides take the same L^p mass ||f||_p^p = ||f o M||_p^p for the far
    # field.  Each side's fitted box gives its own quadrature of that
    # mass, and the sides then differ by up to 6e-5 (measured on hermite
    # under four maps), a share of that quadrature error
    rng = np.random.default_rng(20261020)
    field = AnalyticField.gaussian(
        2, precision=[[1.4, 0.3], [0.3, 0.7]], mean=[0.3, -0.5],
        coefficient=-1.2,
        poly=Polynomial(2, {(2, 0): 1.0, (1, 1): 0.4, (0, 1): -0.3,
                            (0, 0): -0.8}))
    quads = QuadratureBundle.default(2, sphere_resolution=16,
                                     radial_spec=RadialSpec(panels=20))
    order = int(s) + 1
    mass = seminorms._lp_power(field, p, quads.box_for(field))
    monkeypatch.setattr(seminorms, "_lp_power", lambda *args: mass)
    directions = quads.sphere.nodes[:8]
    for _ in range(3):
        m = _unimodular(rng)
        lhs, _ = _single_term_energies(field.affine_compose(m), directions,
                                       s, p, order, quads)
        image = directions @ m.T
        norms = np.linalg.norm(image, axis=1)
        rhs, _ = _single_term_energies(field, image / norms[:, None], s, p,
                                       order, quads)
        np.testing.assert_allclose(lhs, norms ** (s * p) * rhs, rtol=1e-12)


def test_dropped_rows_are_summed_again_when_their_bound_is_large(
        monkeypatch):
    # with a drop share of 1e-3 the dropped pairs' bound exceeds 2^-52 of
    # the kept sums, so every direction sums some steps again over every
    # pair; the samples then equal those with nothing dropped to rounding
    hermite = standard_family()["hermite"]
    calls = []
    original = seminorms._table_sums

    def spy(table, rows, columns, *args):
        calls.append((rows.shape[0], columns.shape[1]))
        return original(table, rows, columns, *args)

    monkeypatch.setattr(seminorms, "_table_sums", spy)
    monkeypatch.setattr(seminorms, "_DROP_SHARE", 0.0)
    exact, _ = _single_term_energies(hermite, DIRECTIONS, 0.5, 3.0, 1, BASE)
    # nothing but exact zeros dropped: one sum per direction
    assert len(calls) == DIRECTIONS.shape[0]
    calls.clear()
    monkeypatch.setattr(seminorms, "_DROP_SHARE", 1e-3)
    got, _ = _single_term_energies(hermite, DIRECTIONS, 0.5, 3.0, 1, BASE)
    assert len(calls) == 2 * DIRECTIONS.shape[0]
    # the second sum of a direction takes every node
    nodes = BASE.whitened_rules_for(2, 1)[2].nodes.shape[0]
    assert all(kept < nodes for _, kept in calls[::2])
    assert all(every == nodes for _, every in calls[1::2])
    np.testing.assert_allclose(got, exact, rtol=1e-14)


def test_non_finite_differences_raise():
    # |Delta|^3 of a 1e300 amplitude overflows: the bounds are not finite,
    # so every pair is summed, and the sum raises
    field = AnalyticField.gaussian(
        2, coefficient=1e300, poly=Polynomial(2, {(1, 0): 1.0}))
    with pytest.raises(NumericalFailureError,
                       match="non-finite difference values"):
        _single_term_energies(field, DIRECTIONS, 0.5, 3.0, 1, BASE)


def test_one_dimensional_slice_takes_the_table():
    # a slice of hermite is one term with a polynomial factor, A = 1 and
    # mean 0; its cross rule is the box of no axes, a single node of
    # weight 1, and its table meets the 1-D sweep to rounding
    piece = standard_family()["hermite"].restrict(axis=0,
                                                  fixed=np.array([0.7]))
    assert len(piece.terms) == 1 and piece.terms[0].polynomial.degree
    line = QuadratureBundle.default(1, box_nodes=72,
                                    radial_spec=RadialSpec(panels=16))
    got, tails = _single_term_energies(piece, np.ones((1, 1)), 0.5, 3.0, 1,
                                       line)
    want, want_tails = _swept_energies(piece, np.ones((1, 1)), 0.5, 3.0, 1,
                                       line)
    np.testing.assert_allclose(got, want, rtol=1e-12)
    np.testing.assert_allclose(tails, want_tails, rtol=1e-6)
