"""Odd- and fractional-p profiles of a single Gaussian, from one line
integral E(s, p, m) and the change of variables y = A^(1/2) (x - mu),
against the exact even-p engine and the box sweep."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affsob import (AnalyticField, QuadratureBundle, SmoothnessParams,
                    directional_profile, seminorms, standard_family)
from affsob.autocorrelation import exact_directional_energies
from affsob.fields import Polynomial
from affsob.seminorms import (_cached_line_energy, _gaussian_energies,
                              _gaussian_line_energy, _swept_energies,
                              slice_seminorm_crosscheck)

# a single Gaussian off the origin with a negative amplitude
MOVED = AnalyticField.gaussian(2, precision=[[1.5, 0.3], [0.3, 0.8]],
                               mean=[0.4, -0.7], coefficient=-1.3)


def _precision(rng, dimension):
    q, _ = np.linalg.qr(rng.standard_normal((dimension, dimension)))
    eig = np.exp(rng.uniform(-0.5, 0.5) + np.linspace(-1.0, 1.0, dimension)
                 * rng.uniform(0.0, 0.5 * np.log(10.0)))
    return q @ np.diag(eig) @ q.T


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), dimension=st.sampled_from([2, 3]),
       s=st.sampled_from([0.5, 1.5]))
def test_formula_matches_the_exact_engine_at_p2(seed, dimension, s):
    rng = np.random.default_rng(seed)
    precision = _precision(rng, dimension)
    assert np.linalg.cond(precision) <= 10.0 + 1e-9
    field = AnalyticField.gaussian(
        dimension, precision=precision, mean=rng.standard_normal(dimension),
        coefficient=rng.uniform(0.3, 3.0) * rng.choice([-1.0, 1.0]))
    quads = QuadratureBundle.default(dimension)
    directions = quads.sphere.nodes[::7]
    order = int(s) + 1
    # E is the energy of the 1-D unit Gaussian, which the engine gives
    # exactly; the line integral is within its head model, 1.8e-13 of E at
    # s = 1.5 and 4e-14 at s = 0.5
    unit = AnalyticField.gaussian(1)
    line = exact_directional_energies(unit, np.ones((1, 1)), s, 2.0,
                                      order)[0][0]
    energy, tail = _gaussian_line_energy(s, 2.0, order, quads)
    assert energy == pytest.approx(line, rel=1e-12)
    assert abs(energy - line) <= tail
    # the change of variables is exact: the rest is rounding
    values, tails = _gaussian_energies(field, directions, s, 2.0, order,
                                       quads)
    exact, _ = exact_directional_energies(field, directions, s, 2.0, order)
    np.testing.assert_allclose(values * (line / energy), exact, rtol=1e-13)
    np.testing.assert_allclose(tails, values * (tail / energy), rtol=1e-15)


@pytest.mark.parametrize("s,p", [(0.5, 3.0), (0.75, 1.5), (0.5, 1.0),
                                 (1.5, 3.0)])
def test_profile_agrees_with_the_doubled_sweep(s, p):
    # the sweep's error is estimated by its drift from the default tier to
    # the doubled one, where it sits 1e-9 to 4e-4 from the line integral;
    # the quadrupled tier is no better estimate, since its boxes along the
    # difference reach the 640-node cap (radial at (1.5, 3): doubled and
    # quadrupled sweeps agree to 2e-7, and both are 1.3e-6 off)
    family = standard_family()
    fields = [family["radial"], family["aniso"], family["shear1"], MOVED]
    directions = np.array([[1.0, 0.0], [0.6, 0.8], [-0.28, 0.96]])
    default = QuadratureBundle.default(2)
    doubled = default.scaled(2)
    order = int(s) + 1
    for field in fields:
        got, _ = _gaussian_energies(field, directions, s, p, order, doubled)
        swept, _ = _swept_energies(field, directions, s, p, order, doubled)
        coarse, _ = _swept_energies(field, directions, s, p, order, default)
        drift = np.abs(coarse / swept - 1.0).max()
        assert np.abs(got / swept - 1.0).max() <= drift
        assert drift < 4e-3


def test_line_energy_is_computed_once_per_tier(monkeypatch):
    # the 96 slices of the cross-check and the 2-D side share E(s, p, m)
    # per tier: one for the 2-D bundle and one for the 1-D bundle of the
    # slices, which has its own line node count
    calls = []
    original = seminorms._gaussian_difference_lp

    def spy(*args):
        calls.append(args[1:])
        return original(*args)

    monkeypatch.setattr(seminorms, "_gaussian_difference_lp", spy)
    _cached_line_energy.cache_clear()
    quads = QuadratureBundle.default(2)
    params = SmoothnessParams(1.5, 1.0)
    first = slice_seminorm_crosscheck(standard_family()["radial"], params, 0,
                                      quads)
    assert calls == [(2, 1.0, 96), (2, 1.0, 192)]
    assert slice_seminorm_crosscheck(standard_family()["radial"], params, 0,
                                     quads) == first
    assert len(calls) == 2


@pytest.fixture()
def paths(monkeypatch):
    """Directions swept box by box, served by the line integral and served
    by the whitened line table, over the profiles of one test."""
    counts = {"swept": 0, "gaussian": 0, "table": 0}

    def spy(name, key):
        original = getattr(seminorms, name)

        def wrapper(field, directions, *args):
            counts[key] += directions.shape[0]
            return original(field, directions, *args)
        monkeypatch.setattr(seminorms, name, wrapper)

    spy("_swept_energies", "swept")
    spy("_gaussian_energies", "gaussian")
    spy("_single_term_energies", "table")
    return counts


def test_dispatch_sweeps_only_what_the_formula_cannot_serve(paths):
    family = standard_family()
    quads = QuadratureBundle.default(2, box_nodes=24, sphere_resolution=8)
    # a profile computes one direction of each antipodal pair
    half = quads.sphere.nodes.shape[0] // 2
    # two terms sweep
    directional_profile(family["twobump"], SmoothnessParams(0.5, 3.0), quads)
    assert paths == {"swept": half, "gaussian": 0, "table": 0}
    paths["swept"] = 0
    # one term with a polynomial factor takes the table, off the origin and
    # with a linear factor too
    linear = AnalyticField.gaussian(
        2, precision=[[1.5, 0.3], [0.3, 0.8]], mean=[0.4, -0.7],
        poly=Polynomial(2, {(1, 0): 0.5, (0, 1): -1.0, (0, 0): 0.2}))
    for field in (family["hermite"], linear):
        for s, p in ((0.5, 3.0), (1.5, 1.0)):
            directional_profile(field, SmoothnessParams(s, p), quads)
    assert paths == {"swept": 0, "gaussian": 0, "table": 4 * half}
    paths["table"] = 0
    gaussians = ["radial", "aniso", "shear1", "shear2", "shear4", "bump"]
    for name in gaussians:
        for s, p in ((0.5, 3.0), (1.5, 1.0), (0.75, 2.5)):
            directional_profile(family[name], SmoothnessParams(s, p), quads)
    assert paths == {"swept": 0, "gaussian": 3 * half * len(gaussians),
                     "table": 0}
    paths["gaussian"] = 0
    # even p takes the exact engine
    directional_profile(family["radial"], SmoothnessParams(0.5, 4.0), quads)
    directional_profile(MOVED, SmoothnessParams(1.5, 2.0), quads)
    directional_profile(family["hermite"], SmoothnessParams(0.5, 4.0), quads)
    assert paths == {"swept": 0, "gaussian": 0, "table": 0}
