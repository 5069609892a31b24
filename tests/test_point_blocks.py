"""The derivative branch walks the box nodes in point blocks
(fields._point_blocks): block edges must leave no trace in the partials,
the objectives' per-sample energies and factors, the profiles or the
semi-norms, and the walk must keep the branch's memory near that of the
samples it holds."""

import tracemalloc
import warnings

import numpy as np
import pytest

from affsob import (AnalyticField, QuadratureBundle, SmoothnessParams,
                    directional_profile, random_unimodular, seminorm)
from affsob import fields
from affsob.fields import _point_blocks
from affsob.seminorms import _sample_objective
from test_sweep import _random_field

# values per block that force blocks of two to a dozen points
_SMALL_BLOCKS = (1, 24)


def _one_and_small(monkeypatch, block, compute):
    """compute() with the default blocks, which hold each input here in
    one block, and again with about `block` values per block."""
    whole = compute()
    monkeypatch.setattr(fields, "_SWEEP_BLOCK", block)
    return whole, compute()


def _assert_same(whole, blocked):
    if isinstance(whole, tuple):
        assert len(whole) == len(blocked)
        for a, b in zip(whole, blocked):
            _assert_same(a, b)
        return
    assert np.array_equal(whole, blocked)


@pytest.mark.parametrize("count,per_point", [(1, 1), (2, 1), (7, 3),
                                             (65537, 1), (131073, 2)])
def test_point_blocks_cover_the_range_without_one_point_blocks(count,
                                                               per_point):
    blocks = _point_blocks(count, per_point)
    assert blocks[0].start == 0 and blocks[-1].stop == count
    assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
    sizes = [b.stop - b.start for b in blocks]
    assert min(sizes) >= min(2, count)
    assert max(sizes) <= fields._SWEEP_BLOCK // per_point + 1


@pytest.mark.parametrize("block", _SMALL_BLOCKS)
@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_partial_values_ignore_block_edges(monkeypatch, block, order,
                                           dimension):
    rng = np.random.default_rng(100 * dimension + order)
    field = _random_field(rng, dimension, 3, 2)
    points = rng.uniform(-2.0, 2.0, (37, dimension))
    _assert_same(*_one_and_small(
        monkeypatch, block, lambda: field.partial_values(points, order)))


def _small_case(s, dimension):
    """A two-term field with linear factors, a small bundle and a random
    SL(N) map."""
    rng = np.random.default_rng(int(10 * s + dimension))
    field = _random_field(rng, dimension, 2, 1)
    quads = QuadratureBundle.default(dimension, box_nodes=12,
                                     sphere_resolution=8)
    return field, quads, random_unimodular(rng, dimension)


def _profile(field, params, quads):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return directional_profile(field, params, quads)


@pytest.mark.parametrize("block", _SMALL_BLOCKS)
@pytest.mark.parametrize("s,dimension", [(1.0, 2), (1.0, 3), (2.0, 2),
                                         (2.0, 3), (3.0, 2), (3.0, 3)])
def test_objective_energies_and_factors_ignore_block_edges(
        monkeypatch, block, s, dimension):
    field, quads, matrix = _small_case(s, dimension)
    profile = _profile(field, SmoothnessParams(s, 1.5), quads)

    def compute():
        ctx = _sample_objective(field, profile.params, quads,
                                profile=profile)
        return ctx.energies(matrix), ctx.factors(matrix)

    _assert_same(*_one_and_small(monkeypatch, block, compute))


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("s,dimension", [(1.0, 2), (2.0, 2), (3.0, 2),
                                         (1.0, 3), (2.0, 3)])
def test_profile_and_seminorm_ignore_block_edges(monkeypatch, s, dimension,
                                                 p):
    field, quads, _ = _small_case(s, dimension)
    params = SmoothnessParams(s, p)

    def compute():
        profile = _profile(field, params, quads)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return (profile.values, profile.samples[1],
                    np.array([seminorm(field, params, quads),
                              seminorm(field, params, quads,
                                       profile=profile)]))

    _assert_same(*_one_and_small(monkeypatch, 24, compute))


def test_derivative_branch_memory_stays_near_the_samples():
    """A 3-D s = 1, p = 2 profile at box_nodes 48 (51 x 49 x 51 nodes for
    this field) and its semi-norm: the traced peak stays under 5 times the
    bytes of the sample matrix the profile holds.  Whole-box temporaries
    reached about 7 times; the blocked walk leaves the box build and the
    p = 2 QR's two copies of the samples as the peak, about 3.5 times.
    The field is a two-term mixture: a single Gaussian takes no box, and a
    degree-2 term adds its whole-box d^beta q (8.3 times)."""
    precision = np.array([[1.2, -0.2, 0.1], [-0.2, 1.0, 0.1],
                          [0.1, 0.1, 0.9]])
    field = (AnalyticField.gaussian(3, precision=precision)
             + AnalyticField.gaussian(3, precision=precision,
                                      mean=[0.6, 0.0, -0.3],
                                      coefficient=0.5))
    params = SmoothnessParams(1.0, 2.0)
    quads = QuadratureBundle.default(3, box_nodes=48)
    tracemalloc.start()
    try:
        profile = directional_profile(field, params, quads)
        seminorm(field, params, quads, profile=profile)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = profile.samples[1].nbytes
    assert profile.samples[1].shape[1] >= 48 ** 3
    assert peak < 5 * held, peak / held
