"""One sample set per profile: at integer s a directional profile keeps the
order-s partials it was computed from, and everything taking `profile=`
uses them instead of sampling f again.  A single Gaussian's energies are
closed forms and its s = 1 samples polar, so the sampling counts are taken
on twobump."""

import json
import warnings

import numpy as np
import pytest

from affsob import (AnalyticField, PsiSpec, QuadratureBundle,
                    SmoothnessParams, affine_energy,
                    directional_lower_bound_check, directional_profile,
                    estimate_slicing_constants, jensen_gap, psi_energy,
                    random_frames, random_unimodular, seminorm,
                    starred_seminorm)
from affsob.cli import cli_main
from affsob.family import weak_grid_field
from affsob.seminorms import _sample_objective
from affsob.suites import _energy_profile, _noimpro_ratio


@pytest.fixture()
def samplings(monkeypatch):
    """Counts the calls of AnalyticField.partial_values of order >= 1."""
    calls = []
    original = AnalyticField.partial_values

    def counting(self, points, order):
        if order >= 1:
            calls.append(order)
        return original(self, points, order)

    monkeypatch.setattr(AnalyticField, "partial_values", counting)
    return calls


@pytest.mark.parametrize("s,p", [(1.0, 2.0), (2.0, 2.0), (3.0, 1.5)])
def test_energy_cli_samples_the_partials_once(s, p, tmp_path, capsys,
                                              samplings):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "dimension": 2, "s": s, "p": p, "field": "twobump",
        "quadrature": {"box_nodes": 32, "sphere_nodes": 32},
    }), encoding="utf-8")
    assert cli_main(["energy", "--config", str(config)]) == 0
    assert samplings == [int(s)]


@pytest.mark.parametrize("s", [1.0, 2.0])
def test_directional_bound_samples_the_partials_once(s, family, lean2,
                                                     samplings):
    directional_lower_bound_check(family["twobump"], np.eye(2),
                                  SmoothnessParams(s, 2.0), lean2)
    assert samplings == [int(s)]


def test_noimpro_ratio_samples_the_partials_once(family, lean2, samplings):
    _noimpro_ratio(family["twobump"], 2.0, SmoothnessParams(1.0, 1.0), lean2)
    assert samplings == [1]


def test_slicing_estimate_samples_once_per_member_and_frame(family, lean2,
                                                            samplings):
    # the semi-norm samples once, then each frame once for all its rows
    frames = random_frames(2, 4)
    twobump = family["twobump"]
    estimate_slicing_constants([twobump, twobump], SmoothnessParams(1.0, 2.0),
                               lean2, frames=frames)
    assert samplings == [1] * 2 * (1 + len(frames))


def test_slicing_estimate_rejects_a_frame_of_other_lengths(aniso, lean2):
    with pytest.raises(ValueError, match="unit vectors"):
        estimate_slicing_constants([aniso], SmoothnessParams(1.0, 2.0), lean2,
                                   frames=[2.0 * np.eye(2)])


def test_cached_profiles_keep_no_samples(aniso, lean2):
    params = SmoothnessParams(1.0, 2.0)
    fresh = directional_profile(aniso, params, lean2)
    cached = _energy_profile(aniso, params, lean2)
    assert fresh.samples is not None and cached.samples is None
    assert np.array_equal(cached.values, fresh.values)
    assert affine_energy(aniso, params, lean2, profile=cached) == \
        affine_energy(aniso, params, lean2, profile=fresh)


def test_a_derivative_profile_without_samples_is_rejected(family, lean2):
    twobump = family["twobump"]
    params = SmoothnessParams(1.0, 2.0)
    bare = _energy_profile(twobump, params, lean2)
    with pytest.raises(ValueError, match="no derivative samples"):
        seminorm(twobump, params, lean2, profile=bare)
    with pytest.raises(ValueError, match="no derivative samples"):
        _sample_objective(twobump, params, lean2, profile=bare)


@pytest.mark.parametrize("s", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("p", [1.5, 2.0])
def test_seminorm_of_a_profile_is_the_seminorm(s, p, family, lean2):
    params = SmoothnessParams(s, p)
    for field in family.values():
        profile = directional_profile(field, params, lean2)
        assert seminorm(field, params, lean2, profile=profile) == \
            seminorm(field, params, lean2)


def test_seminorm_of_a_profile_is_the_seminorm_in_3d():
    field = AnalyticField.gaussian(3).affine_compose(
        np.diag([1.5, 1.0, 1 / 1.5]))
    quads = QuadratureBundle.default(3, box_nodes=16, sphere_resolution=8)
    params = SmoothnessParams(1.0, 2.0)
    profile = directional_profile(field, params, quads)
    assert seminorm(field, params, quads, profile=profile) == \
        seminorm(field, params, quads)


def test_seminorm_of_a_grid_profile_is_the_seminorm():
    grid = weak_grid_field(16)
    quads = QuadratureBundle.default(3, sphere_resolution=8)
    params = SmoothnessParams(2.0, 1.0)
    with warnings.catch_warnings():
        # (2, 1) sits outside the two-sided range; the value is still defined
        warnings.simplefilter("ignore", RuntimeWarning)
        profile = directional_profile(grid, params, quads)
        assert seminorm(grid, params, quads, profile=profile) == \
            seminorm(grid, params, quads)


@pytest.mark.parametrize("s", [1.0, 2.0, 3.0])
def test_objective_of_a_profile_is_the_objective(s, hermite, lean2):
    params = SmoothnessParams(s, 2.0)
    profile = directional_profile(hermite, params, lean2)
    t = random_unimodular(np.random.default_rng(7), 2, (1.0, 3.0))
    shared = _sample_objective(hermite, params, lean2, profile=profile)
    fresh = _sample_objective(hermite, params, lean2)
    assert shared.value(t) == fresh.value(t)
    np.testing.assert_array_equal(shared.gradient(t), fresh.gradient(t))


def test_difference_profiles_carry_no_samples(radial, lean2):
    profile = directional_profile(radial, SmoothnessParams(0.5, 2.0), lean2)
    assert profile.samples is None


@pytest.mark.parametrize("call", [
    lambda f, params, quads, pr: seminorm(f, params, quads, profile=pr),
    lambda f, params, quads, pr: starred_seminorm(f, round(params.s),
                                                  params.p, quads, profile=pr),
    lambda f, params, quads, pr: psi_energy(f, params, PsiSpec.identity(),
                                            quads, profile=pr),
    lambda f, params, quads, pr: affine_energy(f, params, quads, profile=pr),
    lambda f, params, quads, pr: jensen_gap(f, params, quads, profile=pr),
], ids=["seminorm", "starred_seminorm", "psi_energy", "affine_energy",
        "jensen_gap"])
def test_a_profile_of_other_parameters_is_rejected(call, aniso, lean2):
    foreign = directional_profile(aniso, SmoothnessParams(1.0, 4.0), lean2)
    with pytest.raises(ValueError, match="profile is for"):
        call(aniso, SmoothnessParams(1.0, 2.0), lean2, foreign)


def test_a_fractional_profile_of_other_order_is_rejected(aniso, lean2):
    foreign = directional_profile(aniso, SmoothnessParams(1.5, 2.0), lean2)
    with pytest.raises(ValueError, match="profile is for"):
        seminorm(aniso, SmoothnessParams(0.5, 2.0), lean2, profile=foreign)
