"""Semi-norm oracles: every value here has an independent closed form."""

import math
import warnings

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from affsob import (AnalyticField, GridField, QuadratureBundle, RadialSpec,
                    SmoothnessParams, directional_energy, directional_profile,
                    lp_norm, seminorm, slice_seminorm_crosscheck,
                    slicing_bounds, starred_seminorm, weak_quasinorm)
from affsob.autocorrelation import exact_directional_energies
from affsob.constants import random_frames
from affsob.family import weak_grid_field
from affsob.seminorms import _radial_energies, _swept_energies

E0 = np.array([1.0, 0.0])


def test_lp_norm_gaussian(radial, bundle2):
    got = lp_norm(radial, 2.0, bundle2.box_for(radial))
    assert got == pytest.approx(math.sqrt(math.pi), rel=1e-12)


# directional energies of e^{-|x|^2/2} along any unit direction; the p = 2
# values come from Plancherel-type integrals, the p = 1 value from the erf
# antiderivative and a Gamma(1/4) moment, the p = 4 value from expanding the
# quartic difference into shifted Gaussian products
@pytest.mark.parametrize("s,p,want,tol", [
    (0.5, 2.0, math.pi ** 1.5, 1e-9),
    (1.5, 2.0, 2.0 * math.pi ** 1.5 / 3.0, 1e-9),
    (0.5, 4.0, 0.75 * math.pi * math.log(4.0 / 3.0), 1e-12),
])
def test_fractional_directional_energy_oracles(radial, lean2, s, p, want, tol):
    got = directional_energy(radial, SmoothnessParams(s, p), E0, lean2)
    assert got == pytest.approx(want, rel=tol)


def test_fractional_directional_energy_p1_oracle(radial):
    # a single Gaussian's energy is one line integral split at the zeros
    # of the difference, 8e-13 from the closed form; the box sweep's
    # |difference| has a moving kink, so the box rule converges slowly:
    # 96 nodes bring it to 2.8e-3, and its oracle is loose
    bundle = QuadratureBundle.default(2, box_nodes=96, sphere_resolution=16,
                                      radial_spec=RadialSpec(panels=24))
    want = 2.0 ** 2.25 * math.sqrt(math.pi) * scipy.special.gamma(0.25)
    got = directional_energy(radial, SmoothnessParams(0.5, 1.0), E0, bundle)
    assert got == pytest.approx(want, rel=1e-10)
    swept, _ = _swept_energies(radial, E0[None, :], 0.5, 1.0, 1, bundle)
    assert swept[0] == pytest.approx(want, rel=1e-2)


def test_integer_directional_energy_oracle(radial, bundle2):
    got = directional_energy(radial, SmoothnessParams(1.0, 2.0), E0, bundle2)
    assert got == pytest.approx(math.pi / 2, rel=1e-6)


def test_seminorm_oracles(radial, bundle2, lean2):
    assert seminorm(radial, SmoothnessParams(1.0, 2.0), bundle2) == \
        pytest.approx(math.sqrt(math.pi), rel=1e-12)
    assert seminorm(radial, SmoothnessParams(0.5, 2.0), lean2) == \
        pytest.approx(math.sqrt(2.0 * math.pi ** 2.5), rel=1e-9)
    # |grad f| integrates to pi * sqrt(2 pi); the operator-norm sphere scan
    # is only polish-level exact, hence the looser gate
    assert seminorm(radial, SmoothnessParams(1.0, 1.0), bundle2) == \
        pytest.approx(math.pi * math.sqrt(2.0 * math.pi), rel=1e-3)


def test_starred_seminorm_oracles(radial, bundle2):
    assert starred_seminorm(radial, 1, 2.0, bundle2) == \
        pytest.approx(math.pi, rel=1e-12)
    assert starred_seminorm(radial, 2, 2.0, bundle2) == \
        pytest.approx(math.pi * math.sqrt(1.5), rel=1e-12)
    assert starred_seminorm(radial, 1, 1.0, bundle2) == \
        pytest.approx(4.0 * math.pi * math.sqrt(2.0 * math.pi), rel=1e-3)
    with pytest.raises(ValueError):
        starred_seminorm(radial, 1.5, 2.0, bundle2)


def test_higher_difference_energy_oracle(radial, lean2):
    # s = 1/2 with the difference order 2 = N*(floor(s)+1) instead of 1:
    # the sphere integral of the energies is 4 pi^{5/2}
    values, _ = exact_directional_energies(radial, lean2.sphere.nodes, 0.5,
                                           2.0, 2)
    got = lean2.sphere.integrate(values)
    assert got == pytest.approx(4.0 * math.pi ** 2.5, rel=1e-9)


def test_seminorm_accepts_precomputed_profile(radial, lean2):
    params = SmoothnessParams(0.5, 2.0)
    profile = directional_profile(radial, params, lean2)
    direct = seminorm(radial, params, lean2, profile=profile)
    assert direct == profile.integrate() ** 0.5
    assert profile.min_value > 0
    assert not profile.degenerate
    assert profile.tail_budget() >= 0


def test_profile_constant_for_radial_fields(radial, bundle2):
    profile = directional_profile(radial, SmoothnessParams(1.0, 2.0), bundle2)
    assert profile.values.max() == pytest.approx(profile.min_value, rel=1e-10)


def test_orthogonal_invariance(aniso, bundle2):
    theta = 0.9
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    params = SmoothnessParams(1.0, 2.0)
    assert seminorm(aniso.affine_compose(rot), params, bundle2) == \
        pytest.approx(seminorm(aniso, params, bundle2), rel=1e-10)


def test_directional_energy_requires_unit_vector(radial, bundle2):
    with pytest.raises(ValueError):
        directional_energy(radial, SmoothnessParams(1.0, 2.0),
                           np.array([1.0, 1.0]), bundle2)


def test_slicing_bounds_sandwich(aniso, bundle2):
    lower, value, total = slicing_bounds(aniso, SmoothnessParams(1.0, 2.0),
                                         np.eye(2), bundle2)
    assert lower <= value * (1.0 + 1e-12)
    assert value <= total * (1.0 + 1e-12)
    assert lower == pytest.approx(total / 2.0, rel=1e-14)


def test_slicing_bounds_frame_invariance_on_radial(radial, bundle2):
    frames = random_frames(2, 2, seed=3)
    params = SmoothnessParams(1.0, 2.0)
    totals = [slicing_bounds(radial, params, fr, bundle2)[2] for fr in frames]
    assert totals[1] == pytest.approx(totals[0], rel=1e-10)
    assert totals[2] == pytest.approx(totals[0], rel=1e-10)
    with pytest.raises(ValueError):
        slicing_bounds(radial, params, np.array([[1.0, 1.0], [0.0, 1.0]]),
                       bundle2)


@pytest.mark.parametrize("member", ["radial", "aniso", "hermite"])
@pytest.mark.parametrize("s,p", [(0.5, 2.0), (1.0, 2.0)])
def test_slice_crosscheck_agrees(family, bundle2, member, s, p):
    # the restriction pipeline never sees the sphere rule, so agreement here
    # certifies the 1-D and 2-D energy paths against each other
    lhs, rhs = slice_seminorm_crosscheck(family[member],
                                         SmoothnessParams(s, p), 0, bundle2)
    assert lhs == pytest.approx(rhs, rel=1e-9)


@pytest.mark.parametrize("member", ["radial", "aniso", "hermite"])
@pytest.mark.parametrize("s,p", [(0.5, 2.0), (0.5, 4.0), (1.5, 2.0)])
def test_exact_slice_energy_matches_the_slice_sweep(family, member, s, p):
    # the oracle is the box sweep, run on the 1-D bundle of the slices
    line = QuadratureBundle.default(1)
    order = SmoothnessParams(s, p).difference_order
    for u in (-1.3, 0.0, 0.7):
        piece = family[member].restrict(axis=0, fixed=np.array([u]))
        got, _ = _radial_energies(piece, np.ones((1, 1)), s, p, order, line)
        want, _ = _swept_energies(piece, np.ones((1, 1)), s, p, order, line)
        assert got == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("member", ["radial", "aniso"])
@pytest.mark.parametrize("s,p", [(0.5, 3.0), (1.5, 1.0), (1.0, 3.0),
                                 (2.0, 3.0)])
def test_slice_crosscheck_of_single_gaussians_is_exact(family, bundle2,
                                                       member, s, p):
    # both sides take closed forms or the line integral E of one Gaussian,
    # so they meet to rounding at odd and integer p as well
    lhs, rhs = slice_seminorm_crosscheck(family[member],
                                         SmoothnessParams(s, p), 0, bundle2)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_slice_crosscheck_both_axes(aniso, bundle2):
    params = SmoothnessParams(1.0, 2.0)
    lhs0, rhs0 = slice_seminorm_crosscheck(aniso, params, 0, bundle2)
    lhs1, rhs1 = slice_seminorm_crosscheck(aniso, params, 1, bundle2)
    assert lhs0 == pytest.approx(rhs0, rel=1e-9)
    assert lhs1 == pytest.approx(rhs1, rel=1e-9)
    # the two axes carry a 4:1 energy split for this profile
    assert lhs0 == pytest.approx(4.0 * lhs1, rel=1e-9)
    with pytest.raises(ValueError):
        slice_seminorm_crosscheck(aniso, params, 2, bundle2)


def test_weak_quasinorm_gaussian_level_sets():
    grid = weak_grid_field(64)
    got = weak_quasinorm(grid, 3.0)
    want = (4.0 * math.pi / 3.0) ** (1.0 / 3.0) * math.exp(-0.5)
    assert got == pytest.approx(want, rel=0.05)


def test_weak_quasinorm_homogeneity_and_edge_cases():
    grid = weak_grid_field(32)
    base = weak_quasinorm(grid, 3.0)
    tripled = GridField(grid.origin, grid.spacing, 3.0 * grid.values)
    assert weak_quasinorm(tripled, 3.0) == pytest.approx(3.0 * base, rel=1e-12)
    zero = GridField(grid.origin, grid.spacing, 0.0 * grid.values)
    assert weak_quasinorm(zero, 3.0) == 0.0
    with pytest.raises(ValueError):
        weak_quasinorm(grid, 0.0)


def test_flat_direction_degenerates_the_profile():
    # a Gaussian plus its negative: every partial and every difference is
    # an exact zero, so every sphere node carries a true zero on the
    # derivative branch, the exact engine (even p) and the sweep (odd p)
    cancelled = (AnalyticField.gaussian(2)
                 + AnalyticField.gaussian(2, coefficient=-1.0))
    tiny = QuadratureBundle.default(2, box_nodes=24, sphere_resolution=8,
                                    radial_spec=RadialSpec(panels=8))
    for s, p in ((1.0, 2.0), (0.5, 2.0), (0.5, 3.0)):
        profile = directional_profile(cancelled, SmoothnessParams(s, p), tiny)
        assert profile.degenerate
        assert not profile.values.any()


def test_difference_branch_rejects_grid_fields():
    grid = weak_grid_field(16)
    with pytest.raises(ValueError, match="analytic field"):
        directional_energy(grid, SmoothnessParams(0.5, 2.0),
                           np.array([1.0, 0.0, 0.0]),
                           QuadratureBundle.default(3))


def test_zero_field_has_zero_seminorm(bundle2):
    zero = AnalyticField.gaussian(2, coefficient=0.0)
    assert seminorm(zero, SmoothnessParams(1.0, 2.0), bundle2) == 0.0


def test_excluded_pair_warns(radial, bundle2):
    with pytest.warns(RuntimeWarning):
        seminorm(radial, SmoothnessParams(2.0, 1.0), bundle2)


@settings(max_examples=10, deadline=None)
@given(c=st.floats(min_value=0.1, max_value=10.0))
def test_seminorm_is_one_homogeneous(c):
    f = AnalyticField.gaussian(2)
    bundle = QuadratureBundle.default(2, box_nodes=24, sphere_resolution=8)
    params = SmoothnessParams(1.0, 2.0)
    base = seminorm(f, params, bundle)
    assert seminorm(f.scaled(c), params, bundle) == \
        pytest.approx(c * base, rel=1e-10)
