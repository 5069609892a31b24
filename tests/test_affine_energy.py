"""Aggregated energies: invariance, Jensen comparisons, psi plumbing."""

import math

import numpy as np
import pytest

from affsob import (AnalyticField, PsiSpec, QuadratureBundle, RadialSpec,
                    SmoothnessParams, affine_energy, directional_profile,
                    jensen_gap, psi_energy, seminorm, starred_seminorm)
from affsob.fields import Polynomial

P12 = SmoothnessParams(1.0, 2.0)


def test_radial_energy_is_pi(radial, bundle2):
    # constant profile D = pi/2 on the circle: E = (sigma * D)^{1/2} = pi
    result = affine_energy(radial, P12, bundle2)
    assert result.value == pytest.approx(math.pi, rel=1e-12)
    assert not result.degenerate


def test_scale_invariant_pair_ignores_anisotropy(aniso, bundle2):
    # at s = N/p the energy is invariant under all of GL_N, so the
    # anisotropic profile aggregates to exactly the radial value
    result = affine_energy(aniso, P12, bundle2)
    assert result.value == pytest.approx(math.pi, rel=1e-9)


def test_energy_never_exceeds_the_seminorm(aniso, bundle2, lean2):
    gap = jensen_gap(aniso, P12, bundle2)
    assert gap == pytest.approx(0.3708147119, rel=1e-6)
    assert jensen_gap(aniso, SmoothnessParams(0.5, 2.0), lean2) > 0
    assert abs(jensen_gap(AnalyticField.gaussian(2), P12, bundle2)) < 1e-12


def test_psi_identity_recovers_the_seminorm(radial, aniso, bundle2, lean2):
    frac = SmoothnessParams(0.5, 2.0)
    res = psi_energy(aniso, frac, PsiSpec.identity(), lean2)
    assert res.value == pytest.approx(seminorm(aniso, frac, lean2), rel=1e-12)
    res_int = psi_energy(aniso, P12, PsiSpec.identity(), bundle2)
    assert res_int.value == pytest.approx(
        starred_seminorm(aniso, 1, 2.0, bundle2), rel=1e-12)


def test_power_psi_is_the_affine_energy(aniso, bundle2):
    profile = directional_profile(aniso, P12, bundle2)
    via_psi = psi_energy(aniso, P12, PsiSpec.power(1.0, 2.0, 2), bundle2,
                         profile=profile)
    direct = affine_energy(aniso, P12, bundle2, profile=profile)
    assert via_psi.value == direct.value


def test_value_scales_linearly_with_the_field(radial, bundle2):
    base = affine_energy(radial, P12, bundle2).value
    assert affine_energy(radial.scaled(2.5), P12, bundle2).value == \
        pytest.approx(2.5 * base, rel=1e-12)


def test_dilation_covariance(lean2):
    # |f(lambda .)| scales by lambda^{s - N/p} = 2^{-1/2} at (1/2, 2)
    params = SmoothnessParams(0.5, 2.0)
    base = affine_energy(AnalyticField.gaussian(2), params, lean2).value
    dilated = affine_energy(AnalyticField.gaussian(2, precision=4 * np.eye(2)),
                            params, lean2).value
    assert dilated == pytest.approx(base / math.sqrt(2.0), rel=1e-9)


def test_flat_profile_sends_the_energy_to_zero():
    # f = 0, with no terms, as a Gaussian plus its negative or as a term of
    # zero amplitude, has exactly zero energy along every direction: on the
    # derivative branch, from the exact engine at even p and from the box
    # sweep or the line table at odd p
    tiny = QuadratureBundle.default(2, box_nodes=24, sphere_resolution=8,
                                    radial_spec=RadialSpec(panels=8))
    cancelled = (AnalyticField.gaussian(2)
                 + AnalyticField.gaussian(2, coefficient=-1.0))
    silent = AnalyticField.gaussian(2, coefficient=0.0,
                                    poly=Polynomial(2, {(1, 0): 1.0}))
    for field in (AnalyticField(2, []), cancelled, silent):
        for s, p in ((1.0, 2.0), (2.0, 1.5), (0.5, 2.0), (0.5, 3.0)):
            result = affine_energy(field, SmoothnessParams(s, p), tiny)
            assert result.value == 0.0
            assert result.degenerate


def test_tail_budget_is_stamped_on_fractional_results(radial, lean2):
    result = affine_energy(radial, SmoothnessParams(0.5, 2.0), lean2)
    assert result.tail_budget > 0
    integer_result = affine_energy(radial, P12, lean2)
    assert integer_result.tail_budget == 0.0
