"""End-to-end acceptance checks.

Each test exercises one headline guarantee of the library at desk scale:
closed-form oracles, affine invariance, the optimizer's analytic minimizer,
the inequality suites, and run-to-run determinism of the CLI.  Tolerances
are stated inline; the runtime caps keep the whole file practical on a
laptop.
"""

import filecmp
import time
import warnings

import numpy as np
import pytest

from affsob import (OptimizerOptions, QuadratureBundle, RadialSpec,
                    SmoothnessParams, affine_energy, c1_first_approach,
                    c1_second_approach, c_gamma, cli_main, critical_residuals,
                    descent_step, directional_lower_bound_check,
                    directional_profile, lp_norm, minimize, polar_align,
                    pushforward_weight, random_frames, random_unimodular,
                    run_suite, seminorm, slice_seminorm_crosscheck,
                    slicing_bounds, starred_seminorm, strong_shear_members,
                    weak_grid_field, weak_quasinorm)
from affsob.quadrature import build_sphere_quadrature

SQRT_PI = np.sqrt(np.pi)


# --- 1. radial profile equality across the exponent grid -------------------

@pytest.mark.parametrize("s,p", [(0.5, 2.0), (1.0, 2.0), (1.0, 1.0),
                                 (2.0, 2.0)])
def test_radial_equality_between_energy_and_seminorm(radial, bundle2, lean2,
                                                     s, p):
    # for radial profiles the directional energy is constant on the sphere,
    # so the affine energy must collapse to the plain (fractional) or
    # starred (integer) semi-norm
    params = SmoothnessParams(s, p)
    bundle = lean2 if params.fractional else bundle2
    start = time.perf_counter()
    energy = affine_energy(radial, params, bundle)
    if params.fractional:
        base = seminorm(radial, params, bundle)
    else:
        base = starred_seminorm(radial, int(round(s)), p, bundle)
    elapsed = time.perf_counter() - start
    assert not energy.degenerate
    assert energy.value == pytest.approx(base, rel=1e-3)
    assert elapsed < 60.0


# --- 2. Gaussian closed forms ----------------------------------------------

def test_gaussian_norm_and_first_order_seminorm(radial, bundle2):
    assert lp_norm(radial, 2.0, bundle2.box_for(radial)) == \
        pytest.approx(SQRT_PI, rel=1e-5)
    assert seminorm(radial, SmoothnessParams(1.0, 2.0), bundle2) == \
        pytest.approx(SQRT_PI, rel=1e-5)


# --- 3. affine invariance of the energy ------------------------------------

def test_affine_energy_is_invariant_under_unimodular_maps(aniso, hermite):
    rng = np.random.default_rng(42)
    transforms = [random_unimodular(rng, 2) for _ in range(20)]
    assert max(np.linalg.cond(t) for t in transforms) <= 10.0

    # the p = 1 kinked integrand and the fractional radial integral converge
    # slowest, so those pairs get more box nodes / sphere nodes / panels.
    # aniso's images are single Gaussians, whose odd-p profiles come from
    # one line integral and are covariant up to rounding, so hermite keeps
    # a swept field under the (1.5, 1) check, at three of the maps
    odd = QuadratureBundle.default(2, box_nodes=48, sphere_resolution=96,
                                   radial_spec=RadialSpec(panels=20))
    cases = [
        (aniso, 1.0, 2.0, QuadratureBundle.default(2), transforms),
        (aniso, 1.0, 1.0, QuadratureBundle.default(2), transforms),
        (aniso, 2.0, 2.0, QuadratureBundle.default(2), transforms),
        (aniso, 0.5, 2.0, QuadratureBundle.default(
            2, box_nodes=36, radial_spec=RadialSpec(panels=20)), transforms),
        (aniso, 1.5, 1.0, odd, transforms),
        (hermite, 1.5, 1.0, odd, transforms[:3]),
    ]
    for field, s, p, bundle, maps in cases:
        params = SmoothnessParams(s, p)
        base = affine_energy(field, params, bundle).value
        devs = [
            abs(affine_energy(field.affine_compose(t), params,
                              bundle).value / base - 1.0)
            for t in maps
        ]
        assert max(devs) <= 5e-3, (s, p, max(devs))


# --- 4. change of variables on the sphere ----------------------------------

@pytest.mark.parametrize("dimension,resolution,rel_tol",
                         [(2, 64, 1e-6), (3, 24, 1e-3)])
def test_sphere_change_of_variables(dimension, resolution, rel_tol):
    rng = np.random.default_rng(5)
    T = random_unimodular(rng, dimension)
    assert np.linalg.cond(T) <= 4.0
    sphere = build_sphere_quadrature(dimension, resolution)
    integrands = [
        lambda w: 1.0,
        lambda w: w[0] ** 2,
        lambda w: np.exp(w[1]),
        lambda w: 2.0 + np.sin(3.0 * w[0]) * w[-1],
    ]
    for g in integrands:
        direct = sum(wt * g(node)
                     for node, wt in zip(sphere.nodes, sphere.weights))
        pushed = 0.0
        for node, wt in zip(sphere.nodes, sphere.weights):
            image = T @ node
            pushed += wt * pushforward_weight(T, node) * \
                g(image / np.linalg.norm(image))
        assert pushed == pytest.approx(direct, rel=rel_tol)


# --- 5. optimizer oracle ----------------------------------------------------

def test_optimizer_recovers_the_anisotropic_minimizer(aniso, bundle2):
    start = time.perf_counter()
    params = SmoothnessParams(1.0, 2.0)
    transform, value, trace = minimize(aniso, params, OptimizerOptions(),
                                       bundle2)
    assert value == pytest.approx(SQRT_PI, rel=1e-3)

    aligned = polar_align(transform.matrix)
    expected = np.diag([2.0 ** -0.5, 2.0 ** 0.5])
    assert np.allclose(aligned, expected, atol=1e-3)

    r_general, r_diag = critical_residuals(aniso, transform.matrix, 2.0,
                                           bundle2)
    assert r_general <= 1e-4 and r_diag <= 1e-4

    # at the minimizer the energy equals sqrt(sigma/2) times the pulled-back
    # semi-norm, where sigma is the measure of the unit circle
    energy = affine_energy(aniso, params, bundle2).value
    pulled = seminorm(aniso.affine_compose(transform.matrix), params, bundle2)
    assert energy == pytest.approx(np.sqrt(np.pi) * pulled, rel=1e-3)
    assert time.perf_counter() - start < 120.0


# --- 6. shear members violate the directional bound and admit descent ------

def test_shear_members_fail_bound_and_descend(bundle2):
    params = SmoothnessParams(1.0, 2.0)
    threshold, lam = c1_first_approach(2)
    members = strong_shear_members()
    assert len(members) == 5
    for sigma, field in members:
        report = directional_lower_bound_check(field, np.eye(2), params,
                                               bundle2, threshold=threshold)
        assert not report.passed, sigma
        _, old_value, new_value = descent_step(field, params,
                                               report.weak_direction, lam,
                                               bundle2)
        assert new_value < old_value, sigma


# --- 7. explicit constants ---------------------------------------------------

def test_explicit_constants_match_closed_forms():
    value, argmax = c1_first_approach(2)
    assert value == pytest.approx((2.0 - np.sqrt(3.0)) / 4.0, abs=1e-4)
    assert argmax == pytest.approx(2.0 + np.sqrt(3.0), abs=1e-4)
    gamma_value, _ = c_gamma(1.0, 2)
    assert gamma_value == pytest.approx((np.sqrt(2.0) - 1.0) / 2.0, abs=1e-4)
    assert c1_second_approach(2.0, 2) == 2.0 ** -0.5
    assert c1_first_approach(6)[0] < c1_first_approach(2)[0]


# --- 8. first-order slicing sandwich ----------------------------------------

@pytest.mark.parametrize("p", [2.0, 1.5])
def test_first_order_slicing_sandwich(family, bundle2, p):
    params = SmoothnessParams(1.0, p)
    for name, field in family.items():
        for frame in random_frames(2, 5, seed=11):
            lower, value, total = slicing_bounds(field, params, frame,
                                                 bundle2)
            assert lower <= value * (1.0 + 1e-9), (name, p)
            assert value <= total * (1.0 + 1e-9), (name, p)


# --- 9. slice cross-check ----------------------------------------------------

@pytest.mark.parametrize("s,p", [(0.5, 2.0), (1.0, 2.0)])
def test_axis_energy_two_routes_agree(family, bundle2, s, p):
    # the smooth members; the slice route under-resolves strong shears at
    # its default node counts
    params = SmoothnessParams(s, p)
    for name in ("radial", "aniso", "hermite"):
        lhs, rhs = slice_seminorm_crosscheck(family[name], params, 0,
                                             bundle2)
        assert lhs == pytest.approx(rhs, rel=1e-3), name


# --- 10/11. verification suites ---------------------------------------------

def test_inequality_suite_passes_at_reference_resolution():
    start = time.perf_counter()
    report = run_suite("inequalities")
    assert report.passed, report.summary() + "\n" + "\n".join(
        c.check_id + ": " + c.note for c in report.failures())
    assert time.perf_counter() - start < 900.0


def test_fractional_rows_share_the_integer_rows_quadrature_at_half_scale():
    # every suite takes its quadrature from one ladder, so a fractional
    # energy and the integer energy it is divided by sit on the same sphere
    # and their drift under doubling stays well inside the 5% tolerance
    core = {c.check_id: c for c in run_suite("core", 0.5, 0).checks}
    assert core["affine-invariance-difference"].passed
    ineq = {c.check_id: c for c in run_suite("inequalities", 0.5, 0).checks}
    for check_id in ("thm1.1-sobolev-constant", "thm1.2-energy-ordering",
                     "thm1.5-energy-domain", "thm1.6-gn-interpolation"):
        row = ineq[check_id]
        assert abs(row.lhs / row.rhs - 1.0) <= 5e-3, (check_id, row.ratio)


def test_no_improvement_suite_passes():
    report = run_suite("noimpro")
    assert report.passed, report.summary()


# --- 12. weak quasi-norm against the second-order p = 1 energy --------------

def test_weak_quasinorm_ratio_is_resolution_stable():
    start = time.perf_counter()
    bundle3 = QuadratureBundle.default(3)
    params = SmoothnessParams(2.0, 1.0)
    ratios = []
    for resolution in (64, 96):
        grid = weak_grid_field(resolution)
        with warnings.catch_warnings():
            # the pair (s, p) = (2, 1) sits on the excluded boundary and
            # every call warns; the ratio itself is still well defined
            warnings.simplefilter("ignore", RuntimeWarning)
            profile = directional_profile(grid, params, bundle3)
            energy = affine_energy(grid, params, bundle3,
                                   profile=profile).value
        ratio = weak_quasinorm(grid, 3.0) / energy
        assert np.isfinite(ratio) and ratio > 0.0
        ratios.append(ratio)
    drift = abs(ratios[1] / ratios[0] - 1.0)
    assert drift <= 0.05, ratios
    assert time.perf_counter() - start < 300.0


# --- 13. CLI determinism -----------------------------------------------------

def test_verification_cli_is_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    args = ["verify", "--suite", "all", "--scale", "0.5", "--seed", "0"]
    rc_a = cli_main(args + ["--out", str(out_a)])
    rc_b = cli_main(args + ["--out", str(out_b)])
    assert rc_a in (0, 1) and rc_b == rc_a
    names = sorted(p.name for p in out_a.iterdir())
    assert names == sorted(p.name for p in out_b.iterdir())
    assert len(names) == 4
    for name in names:
        assert filecmp.cmp(out_a / name, out_b / name, shallow=False), name


def test_report_cli_writes_verify_tables_and_plot_series(tmp_path):
    # report runs each suite once: its tables are verify's, byte for byte,
    # and each plot file carries exactly the series its suite feeds it
    args = ["--scale", "0.5", "--seed", "0"]
    verify, report = tmp_path / "verify", tmp_path / "report"
    rc_verify = cli_main(["verify", "--suite", "all", "--out", str(verify)]
                         + args)
    rc_report = cli_main(["report", "--out", str(report)] + args)
    assert rc_report == rc_verify
    plots = {"e_vs_shear": {"E-vs-shear"},
             "trace_vs_iteration": {"aniso-objective"},
             "ratio_vs_R": {"noimpro-q4", "noimpro-control"}}
    tables = sorted(p.name for p in verify.iterdir())
    assert sorted(p.name for p in report.iterdir()) == sorted(
        tables + [f"{stem}.csv" for stem in plots])
    for name in tables:
        assert filecmp.cmp(verify / name, report / name, shallow=False), name
    for stem, series in plots.items():
        lines = (report / f"{stem}.csv").read_text(
            encoding="utf-8").splitlines()
        assert lines[0] == "series,x,y"
        assert {line.split(",")[0] for line in lines[1:]} == series, stem
