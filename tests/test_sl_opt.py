"""Minimization over determinant-one transforms and its certificates."""

import math

import numpy as np
import pytest
import scipy.linalg

from affsob import (AnalyticField, GridField, NumericalFailureError,
                    OptimizerOptions, OptimizerTrace, QuadratureBundle,
                    SmoothnessParams, UnimodularTransform,
                    critical_residuals, descent_step,
                    directional_lower_bound_check, directional_profile,
                    exact_gradient_s1,
                    matrix_exp, minimize, numeric_gradient, objective,
                    polar_align, random_unimodular, seminorm, sl_basis)
from affsob.constants import c1_first_approach
from affsob import seminorms, sl_opt
from affsob.family import strong_shear_members
from affsob.sl_opt import _context, _descend

P12 = SmoothnessParams(1.0, 2.0)


def test_matrix_exp_matches_scipy(rng):
    for n in (2, 3):
        a = rng.standard_normal((n, n))
        a -= np.trace(a) / n * np.eye(n)
        np.testing.assert_allclose(matrix_exp(a), scipy.linalg.expm(a),
                                   atol=1e-12)


def test_sl_basis_is_an_orthonormal_traceless_frame():
    for n in (2, 3):
        basis = sl_basis(n)
        assert len(basis) == n * n - 1
        for i, b in enumerate(basis):
            assert abs(np.trace(b)) < 1e-14
            for j, c in enumerate(basis):
                want = 1.0 if i == j else 0.0
                assert np.sum(b * c) == pytest.approx(want, abs=1e-12)


def test_unimodular_transform_normalizes_and_rejects():
    t = UnimodularTransform(2.0 * np.eye(2))
    assert np.linalg.det(t.matrix) == pytest.approx(1.0, rel=1e-12)
    assert UnimodularTransform.identity(3).dimension == 3
    with pytest.raises(ValueError):
        UnimodularTransform(np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(ValueError):
        UnimodularTransform(np.ones((2, 3)))
    with pytest.raises(ValueError):
        UnimodularTransform(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_random_unimodular_distribution(rng):
    for _ in range(10):
        m = random_unimodular(rng, 2, condition_range=(1.0, 6.0))
        assert np.linalg.det(m) == pytest.approx(1.0, rel=1e-10)
        assert np.linalg.cond(m) <= 6.0 + 1e-9


def test_polar_align_strips_the_rotation(rng):
    m = random_unimodular(rng, 2)
    aligned = polar_align(m)
    np.testing.assert_allclose(aligned, aligned.T, atol=1e-12)
    assert np.linalg.det(aligned) == pytest.approx(1.0, rel=1e-10)
    # same symmetric factor: P^2 = M M^T
    np.testing.assert_allclose(aligned @ aligned, m @ m.T, atol=1e-10)


def test_objective_at_identity_is_the_seminorm(aniso, bundle2):
    assert objective(aniso, np.eye(2), P12, bundle2) == \
        pytest.approx(seminorm(aniso, P12, bundle2), rel=1e-12)


@pytest.mark.parametrize("field_name", ["aniso", "hermite"])
@pytest.mark.parametrize("s", [0.5, 1.5])
def test_pushforward_objective_matches_literal_composition(
        field_name, s, lean2, request):
    # one profile of f, reweighted by |T^-1 eta|^-(N+sp), against a fresh
    # profile of the composed field
    field = request.getfixturevalue(field_name)
    params = SmoothnessParams(s, 2.0)
    ctx = _context(field, params, lean2, 1e-5)
    rng = np.random.default_rng(11)
    for _ in range(2):
        t = random_unimodular(rng, 2, condition_range=(1.0, 1.5))
        assert ctx.value(t) == pytest.approx(
            objective(field, t, params, lean2), rel=1e-8)


@pytest.mark.parametrize("s,p", [(1.0, 2.0), (0.5, 3.0), (1.5, 2.0)])
def test_exact_gradient_agrees_with_central_differences(s, p, aniso, bundle2,
                                                        lean2, rng):
    t = random_unimodular(rng, 2)
    params = SmoothnessParams(s, p)
    if params.fractional:
        ctx = _context(aniso, params, lean2, 1e-5)
        exact = ctx.gradient(t)
        numeric = numeric_gradient(aniso, t, params, lean2,
                                   _value_fn=ctx.value)
    else:
        exact = exact_gradient_s1(aniso, t, p, bundle2)
        numeric = numeric_gradient(aniso, t, params, bundle2)
    np.testing.assert_allclose(exact, numeric,
                               atol=1e-8 * max(1.0, np.abs(exact).max()))


def test_minimize_anisotropic_gaussian(aniso, bundle2):
    t, value, trace = minimize(aniso, P12, OptimizerOptions(), bundle2)
    assert value == pytest.approx(math.sqrt(math.pi), rel=1e-6)
    want = np.diag([2.0 ** -0.5, 2.0 ** 0.5])
    np.testing.assert_allclose(t.matrix, want, atol=1e-4)
    assert trace.objectives[0] >= value
    assert trace.terminal_reason


@pytest.mark.parametrize("s,p", [(0.5, 3.0), (1.5, 2.0), (0.75, 1.5)])
def test_minimize_fractional_anisotropic_gaussian(s, p, aniso, radial, lean2):
    # aniso o diag(2^-1/2, 2^1/2) is radial(sqrt(2) x), and scaling x by
    # lambda scales |.|_{s,p} by lambda^{s - N/p}
    params = SmoothnessParams(s, p)
    t, value, trace = minimize(aniso, params, OptimizerOptions(), lean2)
    np.testing.assert_allclose(t.matrix, np.diag([2.0 ** -0.5, 2.0 ** 0.5]),
                               atol=2e-3)
    want = 2.0 ** ((s - 2.0 / p) / 2.0) * seminorm(radial, params, lean2)
    assert value == pytest.approx(want, rel=1e-5)
    assert value < trace.objectives[0]


def test_minimize_descends_at_third_order(aniso, lean2):
    t, value, trace = minimize(aniso, SmoothnessParams(3.0, 2.0),
                               OptimizerOptions(max_iters=5), lean2)
    assert value < 0.75 * trace.objectives[0]
    assert np.linalg.det(t.matrix) == pytest.approx(1.0, rel=1e-10)


def test_fractional_minimize_reuses_the_context_profile(aniso, lean2,
                                                       monkeypatch):
    params = SmoothnessParams(0.5, 3.0)
    # composing with the identity is exact, so the context's profile gives
    # the composition objective at T = I bit for bit
    profile = directional_profile(aniso, params, lean2)
    assert seminorm(aniso, params, lean2, profile=profile) == \
        objective(aniso, np.eye(2), params, lean2)
    calls = []
    original = seminorms.directional_profile

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(seminorms, "directional_profile", counting)
    monkeypatch.setattr(sl_opt, "directional_profile", counting)
    minimize(aniso, params, OptimizerOptions(max_iters=2), lean2)
    # the context's profile and the certified final objective
    assert len(calls) == 2


class _OverflowingContext:
    """Objective 1 at the identity and 1/2 anywhere else, with a gradient so
    large that exp(-B), the first Armijo trial, overflows."""

    def value(self, matrix):
        return 1.0 if np.array_equal(matrix, np.eye(2)) else 0.5

    def gradient(self, matrix):
        return np.diag([800.0, -800.0])


def test_overflowing_armijo_trial_is_rejected():
    opts = OptimizerOptions(max_iters=1, armijo_c=1e-12)
    t, value, trace = _descend(_OverflowingContext(), np.eye(2), opts)
    assert trace.step_sizes == [0.5]
    assert value == 0.5
    assert np.linalg.det(t) == pytest.approx(1.0, rel=1e-12)


def test_strong_shear_descends_past_an_overflowing_trial(family, bundle2):
    # the first trials at s = 2 overflow exp(-step B) for shear4
    t, value, trace = minimize(family["shear4"], SmoothnessParams(2.0, 1.5),
                               OptimizerOptions(max_iters=30), bundle2)
    objectives = trace.objectives
    assert all(b <= a for a, b in zip(objectives, objectives[1:]))
    assert value < objectives[0]
    assert np.linalg.det(t.matrix) == pytest.approx(1.0, rel=1e-10)


def test_minimize_rejects_grid_fields():
    grid = GridField(np.full(2, -1.0), np.full(2, 0.5), np.ones((5, 5)), 1.0)
    with pytest.raises(ValueError, match="GridField"):
        minimize(grid, P12, OptimizerOptions(), QuadratureBundle.default(2))


def test_minimize_radial_exits_at_identity(radial, bundle2):
    t, value, trace = minimize(radial, P12, OptimizerOptions(), bundle2)
    assert len(trace) <= 3
    np.testing.assert_allclose(t.matrix, np.eye(2), atol=1e-8)
    assert value == pytest.approx(math.sqrt(math.pi), rel=1e-9)


def test_minimize_undoes_a_shear(family, bundle2):
    shear2 = family["shear2"]
    t, value, trace = minimize(shear2, P12, OptimizerOptions(), bundle2)
    assert trace.objectives[0] == pytest.approx(3.06998, rel=1e-3)
    assert value == pytest.approx(math.sqrt(math.pi), rel=1e-6)
    assert value < trace.objectives[0]


def test_minimize_rejects_energyless_fields(bundle2):
    zero = AnalyticField.gaussian(2, coefficient=0.0)
    with pytest.raises(ValueError):
        minimize(zero, P12, OptimizerOptions(), bundle2)


def test_optimizer_trace_guards_monotonicity():
    trace = OptimizerTrace()
    trace.record(2.0, 1.0, 0.5, np.eye(2))
    trace.record(1.5, 0.5, 0.5, np.eye(2))
    assert len(trace) == 2
    assert len(trace.transform_hashes[0]) == 12
    with pytest.raises(NumericalFailureError):
        trace.record(1.6, 0.4, 0.5, np.eye(2))


def test_optimizer_options_validation():
    with pytest.raises(ValueError):
        OptimizerOptions(max_iters=0)
    with pytest.raises(ValueError):
        OptimizerOptions(backtrack=1.0)
    with pytest.raises(ValueError):
        OptimizerOptions(armijo_c=0.0)
    with pytest.raises(ValueError):
        OptimizerOptions(restarts=-1)


def test_critical_residuals_vanish_at_the_minimizer(aniso, bundle2):
    t, _, _ = minimize(aniso, P12, OptimizerOptions(), bundle2)
    r_general, r_diag = critical_residuals(aniso, t, 2.0, bundle2)
    assert r_general < 1e-5
    assert r_diag < 1e-5
    # at the identity the first axis hoards the energy
    rg0, rd0 = critical_residuals(aniso, np.eye(2), 2.0, bundle2)
    assert rd0 == pytest.approx(0.3, abs=1e-3)
    with pytest.raises(ValueError):
        critical_residuals(AnalyticField.gaussian(2, coefficient=0.0),
                           np.eye(2), 2.0, bundle2)


def test_descent_step_validates_and_descends(bundle2):
    sigma, member = strong_shear_members()[-1]
    with pytest.raises(ValueError):
        descent_step(member, P12, np.array([1.0, 0.0]), 1.0, bundle2)
    report = directional_lower_bound_check(member, np.eye(2), P12, bundle2,
                                           threshold=c1_first_approach(2)[0])
    assert not report.passed
    lam = c1_first_approach(2)[1]
    t, old, new = descent_step(member, P12, report.weak_direction, lam,
                               bundle2)
    assert np.linalg.det(t.matrix) == pytest.approx(1.0, rel=1e-10)
    assert new < old


def test_directional_bound_on_radial_profiles(radial, bundle2):
    report = directional_lower_bound_check(radial, np.eye(2), P12, bundle2)
    assert report.min_ratio == pytest.approx(2.0 ** -0.5, rel=1e-9)
    assert report.max_ratio == pytest.approx(2.0 ** -0.5, rel=1e-9)
    assert report.passed
    assert report.threshold == pytest.approx(0.5 * c1_first_approach(2)[0],
                                             rel=1e-12)
    assert report.weak_direction.shape == (2,)
