"""The exact even-p directional energies against a refined box sweep, the
product rules against the sweep's samples, and the pole case sp/2 = 1, 2,
... against the energies at neighbouring s."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from affsob import (AnalyticField, NumericalFailureError, RadialQuadrature,
                    RadialSpec, autocorrelation)
from affsob.autocorrelation import (exact_directional_energies,
                                    finite_part_moments)
from affsob.fields import GaussianTerm, Polynomial
from affsob.quadrature import directional_box, radial_from_samples
from affsob.seminorms import _separated_lobes_constant
from test_sweep import _random_field


def refined_sweep(field, xi, s, p, order):
    """D(f, xi) from the box sweep at 1.25 times the default tier's box
    nodes, a 48-panel radial rule and the separated-lobes far field; at
    p = 6 the default box is off by 1.5e-9 on some draws (seed 2018776849,
    one degree-2 term, order 2, s = 3/2; 3e-13 at 1.25 and 2 times), a box
    of 0.75 times the nodes by 3e-6 at degree 3, and 32 panels by 2e-9."""
    box, t_sep = directional_box(field, xi, order, node_scale=1.25)
    rq = RadialQuadrature.for_range(RadialSpec(panels=48), t_sep)
    samples = field.difference_lp_samples(xi, rq.nodes, order, p, box.nodes,
                                          box.weights)
    full, _ = directional_box(field, xi, 0)
    far = _separated_lobes_constant(order, p) * float(
        np.abs(field.evaluate(full.nodes)) ** p @ full.weights)
    return radial_from_samples(samples, s, p, order, rq, far_constant=far)[0]


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       n_terms=st.integers(1, 3),
       degree=st.integers(0, 3),
       p=st.sampled_from([4.0, 6.0]),
       order=st.sampled_from([1, 2]),
       s=st.sampled_from([1.0 / 3.0, 0.5, 0.75, 1.25, 1.5]))
def test_exact_energy_matches_a_refined_sweep(seed, n_terms, degree, p,
                                              order, s):
    # s = 1/2 and 3/2 at p = 4 and s = 1/3 at p = 6 are poles
    assume(order > s)
    rng = np.random.default_rng(seed)
    field = _random_field(rng, 2, n_terms, degree)
    xi = rng.standard_normal(2)
    xi /= np.linalg.norm(xi)
    got, bound = exact_directional_energies(field, xi[None, :], s, p, order)
    assert got[0] == pytest.approx(refined_sweep(field, xi, s, p, order),
                                   rel=1e-9)
    assert 0.0 < bound[0] < 1e-5 * got[0]


# draws the test above failed at 1e-9 when P was sampled and interpolated
# in double, against sweeps at twice the default box nodes and 64 panels
# (1.5 times and 48 panels agree to 6e-14); all but seed 34032 have double
# bounds above 1e-9 of the value and are computed again in long double,
# whose bound for the last is 7e-8 (1.5e-4 in double)
RECORDED_DRAWS = [
    ((0, 1, 3), 6.0, 2, 1.25, 1137.138184024686),
    ((34032, 1, 3), 6.0, 1, 0.75, 1.9384598294980442),
    ((153788, 2, 3), 6.0, 2, 0.75, 382.47530076349017),
    ((330, 3, 0), 6.0, 2, 1.25, 0.023375516608231874),
    ((429507007, 3, 3), 6.0, 2, 1.25, 6.686536053230571),
]


@pytest.mark.parametrize("draw, p, order, s, swept", RECORDED_DRAWS,
                         ids=[f"seed{d[0][0]}" for d in RECORDED_DRAWS])
def test_recorded_draws_match_their_refined_sweeps(draw, p, order, s,
                                                   swept):
    seed, n_terms, degree = draw
    rng = np.random.default_rng(seed)
    field = _random_field(rng, 2, n_terms, degree)
    xi = rng.standard_normal(2)
    xi /= np.linalg.norm(xi)
    got, bound = exact_directional_energies(field, xi[None, :], s, p, order)
    assert got[0] == pytest.approx(swept, rel=1e-11)
    assert 0.0 < bound[0] < 1e-6 * got[0]


def product_sum(field, xi, ts, order, p):
    """||Delta^order_{t xi} f||_p^p expanded term by term: every multiset
    of p (term, shift) pairs, unmerged, through its product rule."""
    c = [math.comb(order, l) * (-1) ** (order - l) for l in range(order + 1)]
    atoms = [(i, l) for i in range(len(field.terms))
             for l in range(order + 1)]
    total = np.zeros_like(ts)
    for chosen in itertools.combinations_with_replacement(atoms, p):
        weight = math.factorial(p) * math.prod(c[l] for _, l in chosen)
        for count in Counter(chosen).values():
            weight //= math.factorial(count)
        rule = autocorrelation._ProductRule(field, [i for i, _ in chosen])
        shift = np.array([[l - chosen[-1][1] for _, l in chosen[:-1]]],
                         dtype=float)
        h, h_t0 = rule.exponent(xi[None, :], shift)
        envelope = rule.scale * np.exp(-0.5 * (
            h[0, 0] * ts ** 2 - 2.0 * h_t0[0, 0] * ts + rule.delta_norm))
        values = np.polynomial.polynomial.polyval(
            ts, rule.polynomial_coefficients(xi[None, :], shift)[0][:, 0, 0])
        total += weight * envelope * values
    return total


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       n_terms=st.integers(1, 2),
       degree=st.integers(0, 2),
       p=st.sampled_from([4, 6]),
       order=st.sampled_from([1, 2]))
def test_product_rules_match_the_swept_samples(seed, n_terms, degree, p,
                                               order):
    # unmerged products at steps where the difference does not cancel (at
    # t = 1/2 its sixth power is 1e-4 of the products); the default 3-D box
    # leaves 4e-6 at p = 4, so the plane only
    rng = np.random.default_rng(seed)
    field = _random_field(rng, 2, n_terms, degree)
    xi = rng.standard_normal(2)
    xi /= np.linalg.norm(xi)
    ts = np.array([1.0, 1.5, 2.0])
    box, _ = directional_box(field, xi, order)
    want = field.difference_lp_samples(xi, ts, order, float(p), box.nodes,
                                       box.weights)
    np.testing.assert_allclose(product_sum(field, xi, ts, order, p), want,
                               rtol=1e-8)


def test_three_dimensional_energy_matches_a_pinned_sweep():
    # pinned from the box sweep (_swept_energies) at 1.5 times the default
    # 3-D tier, which took 20 s per direction; at twice the tier it moves
    # by 1e-14
    terms = [GaussianTerm(1.0, Polynomial(3, {(0, 0, 0): 1.0, (1, 0, 0): 0.5,
                                              (0, 0, 1): -0.3}),
                          np.array([0.2, 0.0, -0.1]),
                          np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.2],
                                    [0.0, 0.2, 0.7]])),
             GaussianTerm(-0.6, Polynomial(3, {(0, 0, 0): 1.0}),
                          np.array([-0.5, 0.4, 0.3]), np.diag([1.5, 1.2, 2.0]))]
    field = AnalyticField(3, terms)
    xi = np.array([[0.48, 0.6, 0.64], [1.0, 0.0, 0.0]])
    got, bound = exact_directional_energies(field, xi, 0.5, 4.0, 1)
    np.testing.assert_allclose(got, [1.3284786282092578, 3.1570247383555805],
                               rtol=1e-12)
    assert np.all(bound < 1e-11 * got)


@pytest.mark.parametrize("member,s,p", [("hermite", 0.5, 4.0),
                                        ("twobump", 1.5, 4.0),
                                        ("shear2", 0.5, 4.0),
                                        ("twobump", 1.0 / 3.0, 6.0)])
def test_pole_energy_is_the_limit_of_its_neighbours(family, member, s, p):
    # sp/2 is an integer; the average of the energies at s +- delta
    # converges to it like delta^2
    field = family[member]
    order = int(math.floor(s)) + 1
    xi = np.array([[0.6, 0.8], [1.0, 0.0]])
    at = exact_directional_energies(field, xi, s, p, order)[0]

    def error(delta):
        near = [exact_directional_energies(field, xi, s + d, p, order)[0]
                for d in (delta, -delta)]
        return np.abs(0.5 * (near[0] + near[1]) / at - 1.0).max()

    coarse, fine = error(1e-4), error(1e-5)
    assert fine < 5e-9
    assert 50.0 < coarse / fine < 200.0


def test_energy_is_continuous_across_a_pole(family):
    field = family["hermite"]
    xi = np.array([[0.6, 0.8], [1.0, 0.0]])
    at, below, above = (exact_directional_energies(field, xi, s, 4.0, 1)[0]
                        for s in (0.5, 0.499, 0.501))
    assert np.abs(below / at - 1.0).max() < 1e-2
    assert np.abs(above / at - 1.0).max() < 1e-2
    assert np.abs(0.5 * (below + above) / at - 1.0).max() < 2e-5
    # one rounding step off the pole is the pole
    for s in (np.nextafter(0.5, 1.0), np.nextafter(0.5, 0.0)):
        assert np.array_equal(
            exact_directional_energies(field, xi, s, 4.0, 1)[0], at)


@pytest.mark.parametrize("s", [1.0, 2.0, 3.0])
def test_pole_moments_are_the_limit_of_their_neighbours(s):
    # h^eps F_j(y0; s + eps) averaged over eps = +-delta: the 1/eps parts
    # cancel and the constant term at the pole is left, up to delta^2,
    # which the extrapolation from delta and 2 delta removes
    y0 = np.linspace(-8.0, 8.0, 32)
    log_h = np.linspace(-2.0, 2.0, 32)

    def average(delta):
        return 0.5 * sum(np.exp(d * log_h) * finite_part_moments(s + d, 6, y0)[0]
                         for d in (delta, -delta))

    got, sizes = finite_part_moments(s, 6, y0, log_scale=log_h)
    want = (4.0 * average(1e-3) - average(2e-3)) / 3.0
    assert np.all(np.abs(got - want) <= 1e-8 * sizes)


@pytest.mark.parametrize("p", [2.0, 4.0])
def test_overflowing_products_are_a_numerical_failure(p):
    # two 1e200 terms: every product's scale holds 1e200^p, beyond the
    # double range, and no other path takes even p
    huge = AnalyticField.gaussian(2, coefficient=1e200)
    with pytest.raises(NumericalFailureError, match="product of terms"):
        exact_directional_energies(huge + huge, np.eye(2), 0.5, p, 1)


def test_only_analytic_fields_at_even_p_are_taken():
    field = AnalyticField.gaussian(2)
    with pytest.raises(ValueError, match="even p"):
        exact_directional_energies(field, np.eye(2), 0.5, 3.0, 1)
