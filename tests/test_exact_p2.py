"""The exact p = 2 directional energies against the box sweep, Kummer
functions and the Fourier form of the directional energy."""

import math

import numpy as np
import pytest
import scipy.special
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from affsob import (AnalyticField, QuadratureBundle, RadialQuadrature,
                    RadialSpec, SmoothnessParams, autocorrelation,
                    directional_energy, directional_profile, quadrature,
                    seminorms)
from affsob.autocorrelation import (exact_directional_energies,
                                    finite_part_moments)
from affsob.fields import GaussianTerm, Polynomial
from affsob.quadrature import directional_box, radial_from_samples
from test_sweep import _random_field

# the benchmark's base tier: box 36, sphere 32, 16 panels, and the same
# doubled
BASE = QuadratureBundle.default(2, box_nodes=36, sphere_resolution=32,
                                radial_spec=RadialSpec(panels=16))
DOUBLED = BASE.scaled(2.0)


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


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       n_terms=st.integers(1, 3),
       degree=st.integers(0, 3),
       order=st.sampled_from([1, 2, 4]),
       s=st.sampled_from([0.5, 0.75, 1.25, 1.5]))
def test_exact_energy_matches_a_refined_sweep(seed, n_terms, degree, order, s):
    assume(order > s)
    rng = np.random.default_rng(seed)
    field = _random_field(rng, 2, n_terms, degree)
    xi = rng.standard_normal(2)
    xi /= np.linalg.norm(xi)
    got = exact_directional_energies(field, xi[None, :], s, 2.0,
                                     order)[0][0]
    # the sweep at twice the base tier (box 36 of 96 nodes) with a
    # 24-panel radial rule leaves about 1e-11 here
    box, t_sep = directional_box(field, xi, order, node_scale=0.75)
    rq = RadialQuadrature.for_range(RadialSpec(panels=24), t_sep)
    samples = field.difference_lp_samples(xi, rq.nodes, order, 2.0, box.nodes,
                                          box.weights)
    full, _ = directional_box(field, xi, 0, node_scale=0.75)
    far = math.comb(2 * order, order) * float(
        field.evaluate(full.nodes) ** 2 @ full.weights)
    want = radial_from_samples(samples, s, 2.0, order, rq, far_constant=far)[0]
    assert got == pytest.approx(want, rel=1e-8)


def autocorrelation_sum(field, xi, ts, order):
    """||Delta^order_{t xi} f||_2^2 = sum_k w_k R(k t), with R summed over
    the ordered pairs of the closed form, each the two-factor product rule
    whose first factor moves by k t."""
    weights = [math.comb(2 * order, order)] + [
        2.0 * (-1.0) ** k * math.comb(2 * order, order + k)
        for k in range(1, order + 1)]
    total = np.zeros_like(ts)
    for i in range(len(field.terms)):
        for j in range(len(field.terms)):
            pair = autocorrelation._ProductRule(field, (i, j))
            for k, w in enumerate(weights):
                shift = np.array([[float(k)]])
                h, h_t0 = pair.exponent(xi[None, :], shift)
                envelope = pair.scale * np.exp(-0.5 * (
                    h[0, 0] * ts ** 2 - 2.0 * h_t0[0, 0] * ts
                    + pair.delta_norm))
                coefficients = pair.polynomial_coefficients(
                    xi[None, :], shift)[0][:, 0, 0]
                values = np.polynomial.polynomial.polyval(ts, coefficients)
                total += w * envelope * values
    return total


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       n_terms=st.integers(1, 2),
       degree=st.integers(0, 3),
       order=st.sampled_from([1, 2, 4]))
def test_pair_rules_match_a_refined_sweep_in_3d(seed, n_terms, degree, order):
    # a 3-D radial energy needs the sweep at 4x the base tier (box 12 of
    # 48 nodes), seconds per direction, so the pair rules are checked at
    # steps where the difference does not cancel
    rng = np.random.default_rng(seed)
    field = _random_field(rng, 3, n_terms, degree)
    xi = rng.standard_normal(3)
    xi /= np.linalg.norm(xi)
    ts = np.array([0.5, 1.0, 2.0])
    box, _ = directional_box(field, xi, order)
    want = field.difference_lp_samples(xi, ts, order, 2.0, box.nodes,
                                       box.weights)
    got = autocorrelation_sum(field, xi, ts, order)
    np.testing.assert_allclose(got, want, rtol=1e-8)


def kummer_moment(s, j, y0):
    """F_j(y0) through scipy's confluent hypergeometric function: the series
    in y0 of the even or the odd part is exp(-x) times a 1F1 in x = y0^2/2."""
    x = 0.5 * y0 ** 2
    half = j // 2
    if j % 2 == 0:
        a, b, front = half - s, 0.5, 1.0
    else:
        a, b, front = half + 1 - s, 1.5, y0
    return (math.exp(-x) * front * 2.0 ** a * math.gamma(a)
            * scipy.special.hyp1f1(a, b, x))


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75, 1.25, 1.5, 2.5])
def test_finite_part_moments_match_kummer_functions(s):
    # both sides of the series / Laplace switch, which sits between
    # y0 = 9 and y0 = 12 for these s, and lobes 12 and 20 widths apart
    y0 = np.concatenate([np.linspace(-14.0, 14.0, 57), [-20.0, 20.0, 0.0]])
    near = (0.5 * y0 ** 2 - 2.0 * s * np.log(np.maximum(y0 ** 2, 1.0))
            < autocorrelation._LAPLACE_LEVEL)
    assert near.any() and not near.all()
    values, sizes = finite_part_moments(s, 6, y0)
    for j in range(7):
        want = np.array([kummer_moment(s, j, y) for y in y0])
        err = np.abs(values[j] - want)
        assert np.all(err <= 1e-13 * np.abs(want) + 2e-16 * sizes[j])


@pytest.fixture()
def sweep_calls(monkeypatch):
    """Names of the sweep's pieces, once per call."""
    calls = []

    def spy(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    spy(AnalyticField, "difference_lp_samples")
    spy(quadrature, "directional_box")
    spy(seminorms, "radial_from_samples")
    return calls


@pytest.mark.parametrize("order", [1, 2, 4])
def test_p2_profiles_build_no_sweep(order, sweep_calls, hermite, family,
                                    lean2):
    # every even p, the pole sp = 2 at p = 4 included; a 2-D rule's first
    # half holds one node of each antipodal pair, which is what a profile
    # computes
    for p in (2.0, 4.0, 6.0):
        values, tails = seminorms._radial_energies(
            hermite, lean2.sphere.nodes[:24], 0.5, p, order, lean2)
        assert np.all(values > 0)
        assert np.all(tails > 0)
        directional_energy(hermite, SmoothnessParams(0.5, p),
                           np.array([0.6, 0.8]), lean2)
    assert sweep_calls == []
    # at odd p one term takes the whitened line table, and a field with two
    # terms keeps the sweep
    tiny = QuadratureBundle.default(2, box_nodes=24, sphere_resolution=4,
                                    radial_spec=RadialSpec(panels=8))
    directional_profile(hermite, SmoothnessParams(0.5, 3.0), tiny)
    assert sweep_calls == ["radial_from_samples"] * 2
    directional_profile(family["twobump"], SmoothnessParams(0.5, 3.0), tiny)
    assert sweep_calls.count("difference_lp_samples") == 2


@pytest.mark.parametrize("name", sorted(MIXTURES))
@pytest.mark.parametrize("s", [0.5, 1.5])
def test_profiles_match_the_fourier_form(name, s):
    terms = MIXTURES[name]
    field = mixture(terms)
    order = int(math.floor(s)) + 1
    for quads in (BASE, DOUBLED):
        profile = directional_profile(field, SmoothnessParams(s, 2.0), quads)
        want = np.array([fourier_energy(terms, xi, s, order)
                         for xi in profile.sphere.nodes])
        assert np.max(np.abs(profile.values / want - 1.0)) <= 1e-12
        # at p = 2 the tail interval bounds the rounding error
        assert np.all(np.abs(profile.values - want) <= profile.tail_interval)


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
    assert np.max(np.abs(profile.values / want - 1.0)) <= 1e-12
    assert np.all(np.abs(profile.values - want) <= profile.tail_interval)
