"""The kernels of the integer branch against their literal forms: the 2-D
top eigenpair of T^t H T against eigh, and the directional energies (the
p = 2 Gram form and the point-blocked sum at other p) against
|W(xi) @ partials|^p summed with the weights."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affsob import (AnalyticField, QuadratureBundle, SmoothnessParams,
                    directional_profile, random_unimodular)
from affsob.family import weak_grid_field
from affsob.fields import directional_weight_matrix, multi_indices
from affsob.quadrature import build_sphere_quadrature
from affsob.seminorms import (_derivative_samples, _hessian_objective,
                              _integer_energies, _top_eigenpairs_2x2)
from test_sweep import _random_field


def _entries(rng, size):
    """Signed entries whose magnitudes are log-uniform in [1e-8, 1e8]."""
    return rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-8, 8, size)


def _ties(rng, size):
    """Exact ties: b = 0 with a = c (a multiple of I), and a = -c (m = 0)."""
    a = _entries(rng, size)
    b = np.where(np.arange(size) % 2 == 0, 0.0, _entries(rng, size))
    c = np.where(np.arange(size) % 2 == 0, a, -a)
    return a, b, c


def _check_eigenpairs(matrices, top, v):
    """|lambda| matches eigh to 1e-14, v is a unit vector, and v is an
    eigenvector of lambda = +-|lambda|, the sign of the trace, minus at a
    zero trace: at a tie that puts v in the top eigenspace."""
    want = np.abs(np.linalg.eigvalsh(matrices)).max(axis=1)
    np.testing.assert_allclose(top, want, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(np.linalg.norm(v, axis=1), 1.0, rtol=1e-15)
    trace = matrices[:, 0, 0] + matrices[:, 1, 1]
    lam = np.where(trace > 0.0, top, -top)
    residual = np.linalg.norm(
        np.einsum("kij,kj->ki", matrices, v) - lam[:, None] * v, axis=1)
    norms = np.linalg.norm(matrices, ord=2, axis=(1, 2))
    assert np.all(residual <= 1e-13 * norms)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), ties=st.booleans())
def test_closed_form_eigenpair_matches_eigh(seed, ties):
    rng = np.random.default_rng(seed)
    a, b, c = _ties(rng, 64) if ties else (_entries(rng, 64) for _ in "abc")
    top, v = _top_eigenpairs_2x2(a, b, c)
    _check_eigenpairs(np.stack([np.stack([a, b], 1), np.stack([b, c], 1)], 1),
                      top, v)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), ties=st.booleans(),
       p=st.sampled_from([1.5, 2.0, 3.0]))
def test_hessian_objective_reads_the_packed_rows(seed, ties, p):
    # the packed rows are H11, H01, H00; T^t H T comes from a linear map of
    # them, checked here against the matrix product of the Hessians
    rng = np.random.default_rng(seed)
    h00, h01, h11 = _ties(rng, 64) if ties else (_entries(rng, 64)
                                                  for _ in range(3))
    # a congruence would break the exact ties
    t = np.eye(2) if ties else random_unimodular(rng, 2,
                                                 condition_range=(1.0, 2.0))
    hessians = np.stack([np.stack([h00, h01], 1), np.stack([h01, h11], 1)], 1)
    ctx = _hessian_objective(multi_indices(2, 2), np.stack([h11, h01, h00]),
                             np.ones(64), p)
    v, scale, _ = ctx.factors(t)
    top = scale ** (1.0 / p)
    _check_eigenpairs(t.T @ hessians @ t, top, v)
    np.testing.assert_allclose(ctx.energies(t), scale, rtol=1e-14, atol=0.0)


def _literal_energies(samples, p, directions):
    alphas, mat, weights = samples
    W = directional_weight_matrix(directions, alphas)
    return np.abs(W @ mat) ** p @ weights


_LEAN = {2: QuadratureBundle.default(2, box_nodes=48, sphere_resolution=32),
         3: QuadratureBundle.default(3, box_nodes=20, sphere_resolution=8)}


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("dimension", [2, 3])
def test_p2_gram_energies_match_the_literal_sum(dimension, order):
    rng = np.random.default_rng(100 * dimension + order)
    field = _random_field(rng, dimension, 2, 2)
    quads = _LEAN[dimension]
    samples = _derivative_samples(field, order, quads, 2.0)
    directions = quads.sphere.nodes
    got = _integer_energies(samples, 2.0, directions)
    want = _literal_energies(samples, 2.0, directions)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("order", [1, 2])
def test_p2_gram_energies_on_a_grid_field(order):
    samples = _derivative_samples(weak_grid_field(16), order, _LEAN[3], 2.0)
    directions = build_sphere_quadrature(3, 8).nodes
    np.testing.assert_allclose(_integer_energies(samples, 2.0, directions),
                               _literal_energies(samples, 2.0, directions),
                               rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_p2_energy_of_a_dead_direction_is_exactly_zero(order, bundle2):
    # every partial that differentiates along axis 0 an all-zero row, as
    # for a function constant along it: the energy along e_0 is exactly 0.0
    alphas, mat, weights = _derivative_samples(AnalyticField.gaussian(2),
                                               order, bundle2, 2.0)
    mat[[alpha[0] > 0 for alpha in alphas]] = 0.0
    directions = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
    got = _integer_energies((alphas, mat, weights), 2.0, directions)
    assert got[0] == 0.0
    assert got[1] > 0.0 and got[2] > 0.0
    # a Gaussian plus its negative has all-zero partials, and the profile's
    # degenerate flag sees its zeros
    cancelled = (AnalyticField.gaussian(2)
                 + AnalyticField.gaussian(2, coefficient=-1.0))
    profile = directional_profile(
        cancelled, SmoothnessParams(float(order), 2.0), bundle2)
    assert profile.degenerate


@pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("dimension", [2, 3])
def test_blocked_energies_match_the_literal_sum(dimension, order, p):
    rng = np.random.default_rng(1000 * dimension + 10 * order + int(2 * p))
    field = _random_field(rng, dimension, 2, 2)
    quads = _LEAN[dimension]
    samples = _derivative_samples(field, order, quads, p)
    directions = quads.sphere.nodes
    np.testing.assert_allclose(_integer_energies(samples, p, directions),
                               _literal_energies(samples, p, directions),
                               rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
@pytest.mark.parametrize("order", [1, 2])
def test_blocked_energies_on_a_grid_field(order, p):
    # 24^3 points against 128 directions: 27 blocks of 512 points
    samples = _derivative_samples(weak_grid_field(24), order, _LEAN[3], p)
    directions = build_sphere_quadrature(3, 8).nodes
    np.testing.assert_allclose(_integer_energies(samples, p, directions),
                               _literal_energies(samples, p, directions),
                               rtol=1e-13, atol=0.0)
