"""The exact p = 2 difference energies against the box sweep and the
Fourier form of the directional energy."""

import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from affsob import (AnalyticField, QuadratureBundle, RadialSpec,
                    SmoothnessParams, directional_profile)
from affsob.autocorrelation import ExactDifferenceEnergy
from affsob.fields import GaussianTerm, Polynomial
from affsob.quadrature import _DEFAULT_HALF_WIDTH, directional_box
from test_sweep import _random_field

# the fractional tiers of the inequality suite: box 36, sphere 32,
# 16 panels, and the same doubled
BASE = QuadratureBundle.default(2, box_nodes=36, sphere_resolution=32,
                                radial_spec=RadialSpec(panels=16))
DOUBLED = BASE.doubled()


def fourier_energy(terms, xi, s, order):
    """D(f, xi) at p = 2 for f = sum_i a_i exp(-(x - mu_i)^T A_i (x - mu_i)/2).

    By Plancherel, D(f, xi) = C(s, m) (2 pi)^-N int |w.xi|^2s |f^(w)|^2 dw
    (Di Nezza-Palatucci-Valdinoci, Prop. 3.4) with
    C(s, m) = int_0^inf r^(-2s-1) (2 sin(r/2))^(2m) dr.  For a mixture each
    term pair gives a Gaussian times a phase along xi, and
    E[|u|^2s cos(k u)] for u ~ N(0, v) is a Kummer function.
    """
    xi = np.asarray(xi, dtype=float)
    n = xi.shape[0]
    # (2 - 2 cos r)^m = sum_k w_k cos(k r); each cos(k r) - 1 term integrates
    # to -k^2s pi / (2 Gamma(1 + 2s) sin(pi s))
    weights = sum(2.0 * (-1.0) ** k * math.comb(2 * order, order + k)
                  * k ** (2.0 * s) for k in range(1, order + 1))
    constant = -weights * math.pi / (2.0 * math.gamma(1.0 + 2.0 * s)
                                     * math.sin(math.pi * s))
    total = 0.0
    for a_i, mu_i, prec_i in terms:
        for a_j, mu_j, prec_j in terms:
            cov = np.linalg.inv(np.linalg.inv(prec_i) + np.linalg.inv(prec_j))
            delta = np.asarray(mu_i, float) - np.asarray(mu_j, float)
            var = float(xi @ cov @ xi)
            shift = float(xi @ cov @ delta)
            damping = math.exp(-0.5 * (float(delta @ cov @ delta)
                                       - shift ** 2 / var))
            pair = (a_i * a_j * (2.0 * math.pi) ** (n / 2.0)
                    * math.sqrt(np.linalg.det(cov)
                                / (np.linalg.det(prec_i) * np.linalg.det(prec_j))))
            x = 0.5 * shift ** 2 / var
            moment = ((2.0 * var) ** s * math.gamma(s + 0.5) / math.sqrt(math.pi)
                      * math.exp(-x) * scipy.special.hyp1f1(-s, 0.5, x))
            total += pair * damping * moment
    return constant * total


def mixture(terms):
    n = len(terms[0][1])
    return AnalyticField(n, [GaussianTerm(a, Polynomial.constant(n, 1.0),
                                          np.asarray(mu, float),
                                          np.asarray(prec, float))
                             for a, mu, prec in terms])


MIXTURES = {
    "radial": [(1.0, [0.0, 0.0], np.eye(2))],
    "aniso": [(1.0, [0.0, 0.0], np.diag([4.0, 1.0]))],
    "shear1": [(1.0, [0.0, 0.0], np.array([[1.0, 1.0], [1.0, 2.0]]))],
    "twobump": [(1.0, [-1.5, 0.0], np.eye(2)),
                (0.8, [1.5, 0.5], np.diag([1.3, 0.9]))],
    "signed": [(1.1, [-0.8, 0.3], np.array([[2.0, 0.4], [0.4, 1.0]])),
               (-0.7, [0.8, -0.3], np.array([[1.2, -0.3], [-0.3, 1.5]]))],
}


def refined_sweep(field, xi, ts, order, node_scale):
    """Box sweep with 4x the nodes per unit length of a bundle at node_scale
    and 1.3x its widths."""
    box, _ = directional_box(field, xi, order,
                             base_half_width=1.3 * _DEFAULT_HALF_WIDTH,
                             node_scale=4.0 * node_scale)
    return field.difference_lp_samples(xi, ts, order, 2.0, box.nodes,
                                       box.weights)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       dimension=st.sampled_from([2, 3]),
       n_terms=st.integers(1, 3),
       degree=st.integers(0, 3),
       order=st.sampled_from([1, 2]))
def test_exact_samples_match_a_refined_sweep(seed, dimension, n_terms, degree,
                                             order):
    rng = np.random.default_rng(seed)
    if dimension == 3:
        n_terms = min(n_terms, 2)
    field = _random_field(rng, dimension, n_terms, degree)
    xi = rng.standard_normal(dimension)
    xi /= np.linalg.norm(xi)
    exact = ExactDifferenceEnergy(field, order)
    head = exact.head(xi)
    assert head is not None
    # below and above the crossover, and a step of the size of the field
    ts = np.array([0.3 * head.crossover, 3.0 * head.crossover, 1.0])
    # the base tiers of the sweep: box 36 of 96 nodes in 2-D, 12 of 48 in 3-D
    node_scale = 0.375 if dimension == 2 else 0.25
    want = refined_sweep(field, xi, ts, order, node_scale)
    np.testing.assert_allclose(exact.samples(xi, ts, head), want, rtol=1e-8)


@pytest.mark.parametrize("name", ["radial", "twobump", "hermite", "shear1"])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_taylor_head_meets_the_closed_form_at_the_crossover(name, order,
                                                             family):
    exact = ExactDifferenceEnergy(family[name], order)
    xi = np.array([math.cos(0.4), math.sin(0.4)])
    head = exact.head(xi)
    t_c = head.crossover
    below, above = exact.samples(xi, np.array([t_c * (1 - 1e-12),
                                               t_c * (1 + 1e-12)]), head)
    assert below == pytest.approx(above, rel=2e-9)
    # and both sides of the crossover match the leading term t^2m |d^m f|^2
    leading = t_c ** (2 * order) * exact.derivative_norm_sq(xi, order)
    assert above == pytest.approx(leading, rel=0.1)


def test_an_order_without_a_head_stays_on_the_sweep(radial, monkeypatch):
    # order 4 needs more head terms than allowed at any crossover
    assert ExactDifferenceEnergy(radial, 4).head(np.array([1.0, 0.0])) is None
    calls = []
    original = AnalyticField.difference_lp_samples

    def spy(self, *args, **kwargs):
        calls.append(args[2])
        return original(self, *args, **kwargs)

    monkeypatch.setattr(AnalyticField, "difference_lp_samples", spy)
    tiny = QuadratureBundle.default(2, box_nodes=24, sphere_resolution=4,
                                    radial_spec=RadialSpec(panels=8))
    directional_profile(radial, SmoothnessParams(1.5, 2.0), tiny,
                        difference_order=4)
    assert calls and set(calls) == {4}
    calls.clear()
    directional_profile(radial, SmoothnessParams(1.5, 2.0), tiny)
    assert not calls


@pytest.mark.parametrize("name", sorted(MIXTURES))
@pytest.mark.parametrize("s", [0.5, 1.5])
def test_profiles_match_the_fourier_form(name, s):
    terms = MIXTURES[name]
    field = mixture(terms)
    order = int(math.floor(s)) + 1
    for quads, tol in ((BASE, 1e-8), (DOUBLED, 1e-9)):
        profile = directional_profile(field, SmoothnessParams(s, 2.0), quads)
        want = np.array([fourier_energy(terms, xi, s, order)
                         for xi in profile.sphere.nodes])
        assert np.max(np.abs(profile.values / want - 1.0)) <= tol


def test_three_dimensional_profile_matches_the_fourier_form():
    # 1152 sphere nodes; the box sweep needed about 5 s per direction here
    terms = [(1.0, [0.2, 0.0, -0.1], np.array([[2.0, 0.3, 0.0],
                                               [0.3, 1.0, 0.2],
                                               [0.0, 0.2, 0.7]])),
             (-0.6, [-0.5, 0.4, 0.3], np.diag([1.5, 1.2, 2.0]))]
    profile = directional_profile(mixture(terms), SmoothnessParams(0.5, 2.0),
                                  QuadratureBundle.default(3))
    want = np.array([fourier_energy(terms, xi, 0.5, 1)
                     for xi in profile.sphere.nodes])
    assert profile.values.shape == (1152,)
    assert np.max(np.abs(profile.values / want - 1.0)) <= 1e-8
