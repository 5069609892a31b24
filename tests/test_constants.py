"""Explicit lower-bound constants against their closed-form stationary points."""

import math

import numpy as np
import pytest

from affsob import (SmoothnessParams, c1_first_approach, c1_general,
                    c1_second_approach, c_gamma, estimate_slicing_constants,
                    random_frames)


def test_c1_first_closed_form_in_the_plane():
    value, argmax = c1_first_approach(2)
    # stationary point of (1/2 - 1/l)/(l - 1/l) sits at 2 + sqrt(3)
    assert value == pytest.approx((2.0 - math.sqrt(3.0)) / 4.0, rel=1e-9)
    assert argmax == pytest.approx(2.0 + math.sqrt(3.0), rel=1e-6)


def test_c1_first_beats_a_dense_grid_scan():
    value, _ = c1_first_approach(2)
    lams = np.geomspace(2.0, 1e6, 100_000)
    inv = 1.0 / lams
    grid_best = np.max((0.5 - inv) / (lams - inv))
    assert value >= grid_best - 1e-12
    assert value == pytest.approx(grid_best, abs=1e-8)


def test_c1_first_decreases_with_dimension():
    v2 = c1_first_approach(2)[0]
    v3 = c1_first_approach(3)[0]
    v6 = c1_first_approach(6)[0]
    assert v6 < v3 < v2
    with pytest.raises(ValueError):
        c1_first_approach(1)


def test_c1_second_closed_form():
    assert c1_second_approach(2.0, 2) == 2.0 ** -0.5
    assert c1_second_approach(3.0, 2) == 2.0 ** -0.5
    assert c1_second_approach(1.5, 2) == 2.0 ** (-1.0 / 1.5)
    assert c1_second_approach(1.0, 3) == 3.0 ** -1.0
    with pytest.raises(ValueError):
        c1_second_approach(0.5, 2)
    with pytest.raises(ValueError):
        c1_second_approach(2.0, 1)


def test_c_gamma_closed_form():
    value, argmax = c_gamma(1.0, 2)
    assert value == pytest.approx((math.sqrt(2.0) - 1.0) / 2.0, rel=1e-9)
    assert argmax == pytest.approx(math.sqrt(1.0 + math.sqrt(2.0)), rel=1e-6)
    # looser approximation quality costs a smaller constant
    assert c_gamma(1.5, 2)[0] < value
    with pytest.raises(ValueError):
        c_gamma(0.9, 2)


def test_c1_general_reduces_to_the_first_approach():
    value, argmax, k2 = c1_general(1.0, 2, 0.5, 1.0)
    first_value, first_argmax = c1_first_approach(2)
    assert value == pytest.approx(first_value, rel=1e-9)
    assert argmax == pytest.approx(first_argmax, rel=1e-6)
    assert k2 == 1.0


def test_c1_general_monotone_in_the_lower_constant():
    base = c1_general(1.0, 2, 0.5, 1.0)[0]
    assert c1_general(1.0, 2, 0.6, 1.0)[0] > base


def test_c1_general_validation():
    with pytest.raises(ValueError):
        c1_general(1.0, 2, 0.0, 1.0)
    with pytest.raises(ValueError):
        c1_general(1.0, 2, 2.0, 1.0)
    with pytest.raises(ValueError):
        c1_general(-1.0, 2, 0.5, 1.0)
    with pytest.raises(ValueError):
        c1_general(1.0, 1, 0.5, 1.0)


def test_random_frames_are_orthonormal_and_seeded():
    frames = random_frames(2, 3, seed=5)
    assert len(frames) == 4
    np.testing.assert_array_equal(frames[0], np.eye(2))
    for fr in frames:
        np.testing.assert_allclose(fr @ fr.T, np.eye(2), atol=1e-12)
    again = random_frames(2, 3, seed=5)
    for a, b in zip(frames, again):
        np.testing.assert_array_equal(a, b)


def test_slicing_estimate_is_exact_for_radial_p2(radial, bundle2):
    k1, k2 = estimate_slicing_constants([radial], SmoothnessParams(1.0, 2.0),
                                        bundle2)
    assert k1 == pytest.approx(1.0, abs=1e-9)
    assert k2 == pytest.approx(1.0, abs=1e-9)


def test_slicing_estimate_skips_degenerate_members(radial, bundle2):
    from affsob import AnalyticField
    zero = AnalyticField.gaussian(2, coefficient=0.0)
    with pytest.warns(RuntimeWarning):
        k1, k2 = estimate_slicing_constants([radial, zero],
                                            SmoothnessParams(1.0, 2.0),
                                            bundle2)
    assert k1 == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError):
        estimate_slicing_constants([zero], SmoothnessParams(1.0, 2.0),
                                   bundle2)
