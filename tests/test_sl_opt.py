"""Minimization over determinant-one transforms and its certificates."""

import math

import numpy as np
import pytest
import scipy.linalg

from affsob import (AnalyticField, GridField, NumericalFailureError,
                    OptimizerOptions, OptimizerTrace, QuadratureBundle,
                    SmoothnessParams, UnimodularTransform,
                    critical_residuals, descent_step,
                    directional_lower_bound_check, matrix_exp, minimize,
                    numeric_gradient, objective, polar_align,
                    random_unimodular, seminorm, sl_basis)
from affsob.constants import c1_first_approach
from affsob import seminorms, sl_opt
from affsob.family import strong_shear_members
from affsob.seminorms import _sample_objective
from affsob.sl_opt import _descend

P12 = SmoothnessParams(1.0, 2.0)


@pytest.fixture(scope="module")
def aniso3():
    shear = np.array([[1.0, 0.3, 0.0], [0.0, 1.0, 0.2], [0.0, 0.0, 1.0]])
    return AnalyticField.gaussian(3).affine_compose(
        np.diag([1.5, 1.0, 1.0 / 1.5]) @ shear)


@pytest.fixture(scope="module")
def bundle3():
    return QuadratureBundle.default(3)


@pytest.fixture(scope="module")
def lean3():
    return QuadratureBundle.default(3, box_nodes=24, sphere_resolution=12)


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


def _composed_value(field, params, quads):
    """|f o T|_{s,p} by literal composition: a fresh semi-norm of the
    composed field on its own box and profile."""
    return lambda t: seminorm(field.affine_compose(t), params, quads)


@pytest.mark.parametrize("s,field_name,quads_name,rel", [
    pytest.param(0.5, "aniso", "lean2", 1e-8, id="0.5-aniso"),
    pytest.param(0.5, "hermite", "lean2", 1e-8, id="0.5-hermite"),
    pytest.param(1.5, "aniso", "lean2", 1e-8, id="1.5-aniso"),
    pytest.param(1.5, "hermite", "lean2", 1e-8, id="1.5-hermite"),
    pytest.param(1.0, "aniso", "bundle2", 1e-10, id="1.0-aniso"),
    pytest.param(1.0, "hermite", "bundle2", 1e-10, id="1.0-hermite"),
    pytest.param(2.0, "aniso", "bundle2", 2e-3, id="2.0-aniso"),
    pytest.param(2.0, "hermite", "bundle2", 2e-3, id="2.0-hermite"),
    pytest.param(3.0, "aniso", "bundle2", 2e-3, id="3.0-aniso"),
    pytest.param(3.0, "hermite", "bundle2", 2e-3, id="3.0-hermite"),
    pytest.param(0.5, "aniso3", "bundle3", 1e-10, id="0.5-aniso3"),
])
def test_pushforward_objective_matches_literal_composition(
        s, field_name, quads_name, rel, request):
    # samples of f taken once, against a fresh semi-norm of the composed
    # field.  At orders 2 and 3 the integrands |lambda_top|^p and the scan
    # maximum have kinks, so the two boxes agree only to 1.4e-3 here; the
    # gap falls to 8e-5 with four times the box nodes
    field = request.getfixturevalue(field_name)
    quads = request.getfixturevalue(quads_name)
    params = SmoothnessParams(s, 2.0)
    ctx = _sample_objective(field, params, quads)
    composed = _composed_value(field, params, quads)
    rng = np.random.default_rng(11)
    for _ in range(2):
        t = random_unimodular(rng, field.dimension,
                              condition_range=(1.0, 1.5))
        assert ctx.value(t) == pytest.approx(composed(t), rel=rel)


@pytest.mark.parametrize("s,p,field_name,quads_name", [
    pytest.param(1.0, 2.0, "aniso", "bundle2", id="1.0-2.0"),
    pytest.param(0.5, 3.0, "aniso", "lean2", id="0.5-3.0"),
    pytest.param(1.5, 2.0, "aniso", "lean2", id="1.5-2.0"),
    pytest.param(2.0, 2.0, "aniso", "bundle2", id="2.0-2.0"),
    pytest.param(2.0, 3.0, "aniso", "bundle2", id="2.0-3.0"),
    pytest.param(2.0, 1.5, "aniso", "bundle2", id="2.0-1.5"),
    pytest.param(3.0, 2.0, "aniso", "bundle2", id="3.0-2.0"),
    pytest.param(2.0, 2.0, "aniso3", "lean3", id="2.0-2.0-aniso3"),
])
def test_exact_gradient_agrees_with_central_differences(s, p, field_name,
                                                        quads_name, rng,
                                                        request, monkeypatch):
    # s = 1 against the literal composition; otherwise against the
    # fixed-sample objective the descent uses: the moment at fractional s,
    # eigenvalue perturbation at order 2 (the closed-form eigenpair in 2-D,
    # eigh in 3-D), Danskin's theorem at order 3
    field = request.getfixturevalue(field_name)
    quads = request.getfixturevalue(quads_name)
    t = random_unimodular(rng, field.dimension)
    params = SmoothnessParams(s, p)
    ctx = _sample_objective(field, params, quads)
    value_fn = _composed_value(field, params, quads) if s == 1.0 \
        else ctx.value
    exact = ctx.gradient(t)
    # numeric_gradient probes sl_opt.objective; route it to the oracle
    monkeypatch.setattr(sl_opt, "objective",
                        lambda _field, mat, _params, _quads: value_fn(mat))
    numeric = numeric_gradient(field, t, params, quads)
    np.testing.assert_allclose(exact, numeric,
                               atol=1e-8 * max(1.0, np.abs(exact).max()))


@pytest.mark.parametrize("s", [1.0, 2.0, 3.0])
def test_integer_minimize_uses_exact_gradients(s, aniso, lean2, monkeypatch):
    calls = {"numeric_gradient": 0, "affine_compose": 0}

    def spy(owner, name):
        original = getattr(owner, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counting)

    spy(sl_opt, "numeric_gradient")
    spy(AnalyticField, "affine_compose")
    params = SmoothnessParams(s, 2.0)
    t, _, _ = minimize(aniso, params, OptimizerOptions(max_iters=3), lean2)
    report = directional_lower_bound_check(aniso, t, params, lean2)
    descent_step(aniso, params, report.weak_direction, 1.5, lean2)
    # every value comes from samples of f, none from a composed field
    assert calls == {"numeric_gradient": 0, "affine_compose": 0}


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
    # lambda scales |.|_{s,p} by lambda^{s - N/p}.  At p = 2 both sides are
    # closed forms.  At p != 2 the swept radial profile carries lean2's
    # sweep error, as does a literal composition; at that diagonal,
    # composition / fixed-sample objective read 2.09751 / 2.09664 on lean2
    # and 2.096443 / 2.096452 on a 3x tier at (0.5, 3), and 14.4008 /
    # 14.4505 on lean2 and 14.45997 / 14.45778 on the 3x tier at
    # (0.75, 1.5).  There the value is checked against the descent's own
    # objective at the diagonal
    params = SmoothnessParams(s, p)
    t, value, trace = minimize(aniso, params, OptimizerOptions(), lean2)
    target = np.diag([2.0 ** -0.5, 2.0 ** 0.5])
    np.testing.assert_allclose(t.matrix, target, atol=2e-3)
    if p == 2.0:
        want = 2.0 ** ((s - 2.0 / p) / 2.0) * seminorm(radial, params, lean2)
        assert value == pytest.approx(want, rel=1e-9)
    else:
        want = _sample_objective(aniso, params, lean2).value(target)
        assert value == pytest.approx(want, rel=1e-6)
    assert value < trace.objectives[0]


@pytest.mark.parametrize("s,p,quads_name", [(0.5, 3.0, "lean2"),
                                            (1.0, 1.5, "bundle2"),
                                            (2.0, 2.0, "bundle2"),
                                            (3.0, 2.0, "bundle2")])
def test_minimize_reports_the_objective_it_descended(s, p, quads_name, family,
                                                    request):
    quads = request.getfixturevalue(quads_name)
    params = SmoothnessParams(s, p)
    for name, field in family.items():
        t, value, trace = minimize(field, params,
                                   OptimizerOptions(max_iters=5), quads)
        ctx = _sample_objective(field, params, quads)
        assert value == ctx.value(t.matrix), name
        assert value <= trace.objectives[0], name


def test_minimize_descends_at_third_order(aniso, lean2):
    t, value, trace = minimize(aniso, SmoothnessParams(3.0, 2.0),
                               OptimizerOptions(max_iters=5), lean2)
    assert value < 0.75 * trace.objectives[0]
    assert np.linalg.det(t.matrix) == pytest.approx(1.0, rel=1e-10)


def test_fractional_descent_stays_where_the_sphere_rule_resolves(family,
                                                                 lean2):
    # shear4 is radial o shear, so |shear4 o T| never falls below |radial|.
    # Without the check the descent ran to cond(T) ~ 3e5, where the 48-node
    # rule misses the peak of |T^-1 eta|^-(N+sp), and reported 0.008
    params = SmoothnessParams(0.5, 2.0)
    t, value, trace = minimize(family["shear4"], params,
                               OptimizerOptions(max_iters=100), lean2)
    assert seminorm(family["radial"], params, lean2) <= value
    assert value < trace.objectives[0]
    assert "resolves" in trace.terminal_reason
    composed = family["shear4"].affine_compose(t.matrix)
    assert value == pytest.approx(seminorm(composed, params, lean2), rel=2e-3)
    with pytest.raises(NumericalFailureError, match="resolve"):
        objective(family["shear4"], np.diag([10.0, 0.1]), params, lean2)


def test_fractional_minimize_reuses_the_context_profile(aniso, lean2,
                                                       monkeypatch):
    params = SmoothnessParams(0.5, 3.0)
    calls = []
    original = seminorms.directional_profile

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(seminorms, "directional_profile", counting)
    monkeypatch.setattr(sl_opt, "directional_profile", counting)
    minimize(aniso, params, OptimizerOptions(max_iters=2), lean2)
    # the start value, the descent and the reported value share one profile
    assert len(calls) == 1


class _OverflowingContext:
    """Objective 100 at the identity and 1/2 anywhere else, with a gradient
    so large that exp(-B), the first Armijo trial, overflows.  The half
    step passes the Armijo test: its drop 99.5 is at least
    1e-4 * 0.5 * |B|^2 = 64."""

    def value(self, matrix):
        return 100.0 if np.array_equal(matrix, np.eye(2)) else 0.5

    def gradient(self, matrix):
        return np.diag([800.0, -800.0])

    def trusted(self, matrix):
        return True


def test_overflowing_armijo_trial_is_rejected():
    t, trace = _descend(_OverflowingContext(), np.eye(2), 100.0, max_iters=1)
    assert trace.objectives == [100.0]
    assert trace.step_sizes == [0.5]
    assert not np.array_equal(t, np.eye(2))
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
    grid = GridField(np.full(2, -1.0), np.full(2, 0.5), np.ones((5, 5)))
    with pytest.raises(ValueError, match="GridField"):
        minimize(grid, P12, OptimizerOptions(), QuadratureBundle.default(2))


def test_minimize_radial_exits_at_identity(radial, bundle2):
    t, value, trace = minimize(radial, P12, OptimizerOptions(), bundle2)
    assert len(trace) <= 3
    np.testing.assert_allclose(t.matrix, np.eye(2), atol=1e-8)
    assert value == pytest.approx(math.sqrt(math.pi), rel=1e-9)


def test_minimize_radial_exits_at_identity_at_second_order(radial, bundle2):
    # every Hessian of a radial field has tied |eigenvalues| somewhere, and
    # any top eigenvector gives a valid subgradient there
    params = SmoothnessParams(2.0, 2.0)
    t, value, trace = minimize(radial, params, OptimizerOptions(), bundle2)
    assert len(trace) <= 3
    np.testing.assert_allclose(t.matrix, np.eye(2), atol=1e-8)
    assert value == pytest.approx(seminorm(radial, params, bundle2), rel=1e-9)


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
