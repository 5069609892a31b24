"""A single Gaussian f = c exp(-(x - mu)^T A (x - mu) / 2) on the derivative
branch: its energies D(f, xi) are closed forms in J_k(p), and its s = 1
samples are polar, A^(1/2) theta_j on a sphere rule sized from
cond(A^(1/2)).  The oracles are mpmath integrals, the closed form of radial
at (1, 1), the box's partials at even p, and literal composition."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from affsob import (AnalyticField, NumericalFailureError, OptimizerOptions,
                    QuadratureBundle, SmoothnessParams, critical_residuals,
                    directional_profile, minimize, objective,
                    random_unimodular, seminorm)
from affsob.cli import cli_main
from affsob.family import field_from_spec, strong_shear_members
from affsob.fields import multi_indices
from affsob.seminorms import (_derivative_samples, _hermite_power_integral,
                              _integer_energies, _polar_plan,
                              _sample_objective)

_SINGLE = ("radial", "aniso", "shear1", "shear2", "shear4", "bump")
_CI_PRECISION = np.array([[1.2, -0.2, 0.1], [-0.2, 1.0, 0.1],
                          [0.1, 0.1, 0.9]])


def _mp():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    return mpmath


def _mpmath_hermite_integral(mp, order, p):
    """J_k(p) = int |He_k(u)|^p exp(-p u^2 / 2) du, by mpmath on the pieces
    between the roots of He_k."""
    def hermite(u):
        low, high = mp.mpf(1), u
        for n in range(1, order):
            low, high = high, u * high - n * low
        return high

    roots = [mp.findroot(hermite, float(r)) for r in
             np.polynomial.hermite_e.hermeroots((0.0,) * order + (1.0,))]
    return mp.quad(lambda u: abs(hermite(u)) ** p * mp.exp(-p * u * u / 2),
                   [-mp.inf] + roots + [mp.inf])


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 2.5, 3.0, 4.5])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_hermite_power_integral_matches_mpmath(order, p):
    want = float(_mpmath_hermite_integral(_mp(), order, p))
    assert _hermite_power_integral(order, p) == pytest.approx(want, rel=1e-13)


def test_radial_at_one_one_is_two_sqrt_two_pi(family, bundle2):
    profile = directional_profile(family["radial"], SmoothnessParams(1.0, 1.0),
                                  bundle2)
    np.testing.assert_allclose(profile.values, 2.0 * math.sqrt(2.0 * math.pi),
                               rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("s,p", [(2, 1.5), (3, 3.0)])
def test_radial_at_odd_p_is_its_closed_form(s, p, family, bundle2):
    # D = sqrt(2 pi / p) J_s(p) at every node; the box is 1e-4 off here
    mp = _mp()
    want = float(mp.sqrt(2 * mp.pi / p) * _mpmath_hermite_integral(mp, s, p))
    profile = directional_profile(family["radial"],
                                  SmoothnessParams(float(s), p), bundle2)
    np.testing.assert_allclose(profile.values, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("p", [2.0, 4.0])
@pytest.mark.parametrize("s", [1, 2, 3])
def test_even_p_profile_matches_the_box(s, p, family, bundle2):
    # at even p the box's Gauss-Legendre rule integrates |d^k_xi f|^p of a
    # Gaussian spectrally, so it is an independent oracle
    for name in _SINGLE:
        field = family[name]
        box = bundle2.box_for(field)
        samples = (multi_indices(2, s), field.partial_values(box.nodes, s),
                   box.weights)
        want = _integer_energies(samples, p, bundle2.sphere.nodes)
        profile = directional_profile(field, SmoothnessParams(float(s), p),
                                      bundle2)
        np.testing.assert_allclose(profile.values, want, rtol=1e-12,
                                   atol=0.0, err_msg=name)


def _angular_seminorm(mp, field, p):
    """|f|_{1,p} from mpmath: |c|^p det(A)^(-1/2) int_0^inf r^(p+1)
    exp(-p r^2 / 2) dr int_0^(2 pi) |A^(1/2) theta|^p dtheta, the angular
    integrand (a cos^2 t + b sin^2 t)^(p/2) in A's eigenframe."""
    (a11, a12), (_, a22) = (map(mp.mpf, row) for row in
                            field.terms[0].precision)
    mean, gap = (a11 + a22) / 2, mp.sqrt(((a11 - a22) / 2) ** 2 + a12 ** 2)
    high, low = mean + gap, mean - gap
    knee = mp.atan(mp.sqrt(high / low))
    angular = 4 * mp.quad(
        lambda t: (high * mp.cos(t) ** 2 + low * mp.sin(t) ** 2) ** (p / 2),
        [0, knee, mp.pi / 2])
    radial = mp.quad(lambda r: r ** (p + 1) * mp.exp(-p * r * r / 2),
                     [0, 1, mp.inf])
    c = mp.mpf(field.terms[0].coefficient)
    power = abs(c) ** p / mp.sqrt(high * low) * radial * angular
    return float(power ** (1 / mp.mpf(p)))


@pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
def test_s1_seminorm_matches_an_mpmath_angular_integral(p, family, bundle2):
    mp = _mp()
    fields = {name: family[name] for name in ("aniso", "shear2", "shear4")}
    fields["strongest shear"] = strong_shear_members()[-1][1]
    for name, field in fields.items():
        assert _polar_plan(field, bundle2) is not None, name
        want = _angular_seminorm(mp, field, p)
        got = seminorm(field, SmoothnessParams(1.0, p), bundle2)
        assert got == pytest.approx(want, rel=1e-13), name


_QUADS = {2: QuadratureBundle.default(2), 3: QuadratureBundle.default(3)}


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), dimension=st.sampled_from([2, 3]),
       p=st.sampled_from([1.0, 1.5, 2.0, 3.0]))
def test_objective_is_the_seminorm_of_the_composed_field(seed, dimension, p):
    rng = np.random.default_rng(seed)
    field = AnalyticField.gaussian(
        dimension, coefficient=rng.uniform(0.5, 2.0),
        mean=rng.uniform(-1.0, 1.0, dimension),
        precision=(lambda r: r @ r.T)(random_unimodular(rng, dimension,
                                                        (1.0, 2.0))))
    t = random_unimodular(rng, dimension, (1.0, 4.0))
    quads = _QUADS[dimension]
    params = SmoothnessParams(1.0, p)
    ctx = _sample_objective(field, params, quads)
    composed = field.affine_compose(t)
    # a composed field whose rule outgrows its box takes the box, which is
    # 1e-4 off at p = 1 (its 3-D rule holds 5000 cond(A^(1/2))^2 nodes)
    assume(ctx.trusted(t) and _polar_plan(composed, quads) is not None)
    want = seminorm(composed, params, quads)
    assert objective(field, t, params, quads) == pytest.approx(want,
                                                               rel=1e-12)


def test_transforms_beyond_the_limit_are_untrusted(family, bundle2):
    field = family["shear2"]
    params = SmoothnessParams(1.0, 3.0)
    root, limit, _ = _polar_plan(field, bundle2)
    ctx = _sample_objective(field, params, bundle2)
    # stretch along the top eigenvector of T^t A^(1/2) at T = I
    vec = np.linalg.eigh(field.terms[0].precision)[1][:, -1]
    for lam, trusted in [(1.5, True), (3.0, False)]:
        t = (lam * np.outer(vec, vec)
             + (np.eye(2) - np.outer(vec, vec)) / lam)
        assert (np.linalg.cond(t.T @ root) <= limit) == trusted
        assert ctx.trusted(t) == trusted
    with pytest.raises(NumericalFailureError, match="does not resolve"):
        objective(field, t, params, bundle2)
    with pytest.raises(NumericalFailureError, match="does not resolve"):
        critical_residuals(field, t, 3.0, bundle2)


def test_a_rule_larger_than_the_box_leaves_the_box_in_place(family):
    # the strongest shear needs about 4k circle nodes, more than its box
    # holds at 24 base nodes per axis
    field = strong_shear_members()[-1][1]
    small = QuadratureBundle.default(2, box_nodes=24)
    assert _polar_plan(field, small) is None
    _, mat, weights = _derivative_samples(field, 1, small, 1.5)
    assert weights.shape == small.box_for(field).weights.shape
    assert _sample_objective(field, SmoothnessParams(1.0, 1.5),
                             small).trusted(np.diag([100.0, 0.01]))


def _gaussian_config(dimension):
    precision = _CI_PRECISION if dimension == 3 else [[2.0, 0.5], [0.5, 1.0]]
    return {"dimension": dimension, "s": 1.0, "p": 3.0, "field": {"terms": [
        {"coefficient": 1.0, "mean": [0.3] + [0.0] * (dimension - 1),
         "precision": np.asarray(precision).tolist(),
         "polynomial": {",".join("0" * dimension): 1.0}}]}}


@pytest.mark.parametrize("dimension", [2, 3])
def test_s1_single_gaussian_builds_no_box(dimension, monkeypatch, tmp_path):
    def refuse(self, field):
        raise AssertionError("a box was built")

    monkeypatch.setattr(QuadratureBundle, "box_for", refuse)
    raw = _gaussian_config(dimension)
    config = tmp_path / "run.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    assert cli_main(["energy", "--config", str(config)]) == 0
    field = field_from_spec(raw["field"], dimension)
    _, value, trace = minimize(field, SmoothnessParams(1.0, 3.0),
                               OptimizerOptions(max_iters=20),
                               _QUADS[dimension])
    assert value < trace.objectives[0]
