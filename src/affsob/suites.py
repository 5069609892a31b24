"""Named verification suites binding the numerics to the statements they test.

Every check contributes one row to a VerificationReport: a left-hand value,
a right-hand value, their ratio, a tolerance, and a pass flag.  Identities
are gated on relative deviation, inequalities on the sign of the margin, and
non-explicit constants by the empirical protocol: the constant must be
finite, stable across the frozen family, and must drift by at most the
tolerance when every quadrature resolution is doubled.

Checks inside a suite run in order on the caller's thread, and each one
derives its randomness from the suite seed alone.  A suite that feeds a plot
hands its series over on the report, keyed by the plot file.
"""

from __future__ import annotations

import functools
import math
import time
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .affine_energy import affine_energy, jensen_gap
from .config import validate_balance, validate_subcritical
from .constants import c1_first_approach, c1_second_approach, c_gamma, random_frames
from .family import (ridge_member, standard_family, strong_shear_members,
                     weak_grid_field)
from .fields import SmoothnessParams
from .quadrature import (QuadratureBundle, build_sphere_quadrature,
                         pushforward_weight)
from .reporting import CheckResult, VerificationReport
from .seminorms import (DirectionalEnergyProfile, directional_energy,
                        directional_profile, lp_norm, seminorm,
                        slice_seminorm_crosscheck, slicing_bounds,
                        weak_quasinorm)
from .sl_opt import (OptimizerOptions, critical_residuals, descent_step,
                     directional_lower_bound_check, minimize, objective,
                     random_unimodular)

_RELATIONS = ("identity", "drift", "upper", "lower", "deviation", "monotone")


@dataclass(frozen=True)
class CheckSpec:
    """Declares one check: what it compares, how, and at which tolerance."""

    check_id: str
    theorem: str
    relation: str
    tolerance: float

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.relation not in _RELATIONS:
            raise ValueError(f"unknown relation {self.relation!r}")

    def row(self, suite: str, lhs: float, rhs: float, note: str = "",
            extra_passed: bool = True) -> CheckResult:
        lhs = float(lhs)
        rhs = float(rhs)
        finite = math.isfinite(lhs) and math.isfinite(rhs)
        if self.relation in ("identity", "drift", "upper", "lower"):
            ratio = lhs / rhs if rhs != 0.0 else math.inf
        elif self.relation == "deviation":
            rhs = self.tolerance
            ratio = lhs / rhs
        else:  # monotone: lhs is the smallest increment, must be positive
            rhs = 0.0
            ratio = lhs
        if self.relation in ("identity", "drift"):
            ok = finite and abs(ratio - 1.0) <= self.tolerance
        elif self.relation == "upper":
            ok = finite and lhs <= rhs * (1.0 + self.tolerance)
        elif self.relation == "lower":
            ok = finite and lhs >= rhs * (1.0 - self.tolerance)
        elif self.relation == "deviation":
            ok = finite and lhs <= rhs
        else:
            ok = math.isfinite(lhs) and lhs > 0.0
        return CheckResult(suite, self.check_id, self.theorem, lhs, rhs,
                           float(ratio), self.tolerance,
                           bool(ok and extra_passed), None, note)


def _energy_profile(field, params: SmoothnessParams,
                    quads: QuadratureBundle) -> DirectionalEnergyProfile:
    """The profile a suite memoizes: every cached consumer reads only the
    energies, so it is kept without its derivative samples."""
    return replace(directional_profile(field, params, quads), samples=None)


def _collect(suite: str, jobs, series: dict | None = None
             ) -> VerificationReport:
    """Run the jobs in order; the rows of one job share its wall time."""
    checks = []
    for job in jobs:
        t0 = time.perf_counter()
        rows = job()
        dt = time.perf_counter() - t0
        rows = rows if isinstance(rows, list) else [rows]
        for r in rows:
            r.seconds = round(dt / len(rows), 6)
        checks += rows
    ids = [c.check_id for c in checks]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate check ids in suite " + suite)
    return VerificationReport(suite, checks, series or {})


def _fmt(x: float) -> str:
    return f"{x:.6g}"


# ---------------------------------------------------------------------------
# core identities

_RAD_PAIRS = ((0.5, 2.0), (1.0, 2.0), (1.0, 1.0), (2.0, 2.0))
_CROSSCHECK_MEMBERS = ("radial", "aniso", "hermite")
_CROSSCHECK_PAIRS = ((0.5, 2.0), (1.0, 2.0))


def _core_identities(scale: float, seed: int) -> VerificationReport:
    """Affine invariance, pushforward, Jensen, radial equality, scaling,
    slice cross-checks over the standard family."""
    fam = standard_family()
    bundle = QuadratureBundle.default(2).scaled(scale)
    series: dict = {}

    @functools.cache
    def prof(name, s, p):
        return _energy_profile(fam[name], SmoothnessParams(s, p), bundle)

    jobs = []

    def envelope_job(spec, name, s, p):
        """Compare the affine energy of a member with Jensen's envelope:
        the semi-norm, sphere-integrated at integer s."""
        def job():
            params = SmoothnessParams(s, p)
            pr = prof(name, s, p)
            energy = affine_energy(fam[name], params, bundle, profile=pr)
            ref = pr.integrate() ** (1.0 / p)
            return spec.row("core", energy.value, ref)
        return job

    for s, p in _RAD_PAIRS:
        spec = CheckSpec(f"rad-equality-s{s:g}-p{p:g}", "eq-rad", "identity",
                         1e-3)
        jobs.append(envelope_job(spec, "radial", s, p))

    def invariance_job(check_id, s, p, tol):
        spec = CheckSpec(check_id, "prop-affine-invariance", "deviation", tol)

        def job():
            params = SmoothnessParams(s, p)
            rng = np.random.default_rng(seed + 17)
            transforms = [random_unimodular(rng, 2, (1.0, 6.0))
                          for _ in range(3)]
            base = affine_energy(fam["twobump"], params, bundle).value
            devs = [abs(affine_energy(fam["twobump"].affine_compose(t),
                                      params, bundle).value - base) / base
                    for t in transforms]
            return spec.row("core", max(devs), 0.0,
                            note=f"E={_fmt(base)} over 3 transforms")
        return job

    jobs.append(invariance_job("affine-invariance-derivative", 1.0, 2.0,
                               5e-3))
    jobs.append(invariance_job("affine-invariance-difference", 0.5, 2.0,
                               5e-3))

    def pushforward_job(dim, sphere, tol):
        spec = CheckSpec(f"pushforward-identity-{dim}d", "lemma-change-of-var",
                         "deviation", tol)

        def job():
            rng = np.random.default_rng(seed + 29 + dim)
            T = random_unimodular(rng, dim, (1.0, 4.0))
            probes = (
                lambda w: np.ones(w.shape[0]),
                lambda w: 1.0 + 0.5 * w[:, 0] ** 2,
                lambda w: np.exp(w[:, 1]),
                lambda w: 2.0 + np.sin(3.0 * w[:, 0]) * w[:, -1],
            )
            image = sphere.nodes @ T.T
            mapped = image / np.linalg.norm(image, axis=1)[:, None]
            jac = np.array([pushforward_weight(T, w) for w in sphere.nodes])
            devs = []
            for g in probes:
                lhs = sphere.integrate(g(mapped) * jac)
                rhs = sphere.integrate(g(sphere.nodes))
                devs.append(abs(lhs - rhs) / abs(rhs))
            return spec.row("core", max(devs), 0.0, note="4 integrands")
        return job

    jobs.append(pushforward_job(2, bundle.sphere, 1e-6))
    jobs.append(pushforward_job(
        3, build_sphere_quadrature(3, max(12, int(round(24 * scale)))), 1e-3))

    for name, s in (("radial", 1.0), ("aniso", 1.0), ("shear2", 1.0),
                    ("aniso", 0.5)):
        spec = CheckSpec(f"jensen-upper-{name}-s{s:g}", "lemma-jensen",
                         "upper", 1e-9)
        jobs.append(envelope_job(spec, name, s, 2.0))

    def monotone_job():
        spec = CheckSpec("jensen-gap-monotone-shear", "lemma-jensen",
                         "monotone", 1e-9)

        def job():
            gaps = []
            points = []
            params = SmoothnessParams(1.0, 2.0)
            for sigma in (1, 2, 4):
                name = f"shear{sigma}"
                pr = prof(name, 1.0, 2.0)
                energy = affine_energy(fam[name], params, bundle,
                                       profile=pr).value
                gaps.append(jensen_gap(fam[name], params, bundle, profile=pr))
                points.append(("E-vs-shear", float(sigma), energy))
            series["e_vs_shear"] = points
            increments = np.diff(gaps)
            return spec.row("core", float(increments.min()), 0.0,
                            note="gaps " + " ".join(_fmt(g) for g in gaps))
        return job

    jobs.append(monotone_job())

    def scaling_job(check_id, s, p, tol):
        spec = CheckSpec(check_id, "lemma-2.12", "deviation", tol)

        def job():
            params = SmoothnessParams(s, p)
            entries = (1.5, 0.8)
            M = np.diag(entries)
            det = float(np.prod(entries))
            composed = fam["aniso"].affine_compose(M)
            devs = []
            for axis, lam in enumerate(entries):
                e = np.zeros(2)
                e[axis] = 1.0
                lhs = directional_energy(composed, params, e, bundle)
                rhs = (lam ** (params.s * params.p) / det
                       * directional_energy(fam["aniso"], params, e, bundle))
                devs.append(abs(lhs - rhs) / rhs)
            return spec.row("core", max(devs), 0.0, note="diag(1.5,0.8)")
        return job

    jobs.append(scaling_job("diag-scaling-derivative", 1.0, 2.0, 1e-6))
    jobs.append(scaling_job("diag-scaling-difference", 0.5, 2.0, 1e-6))

    def crosscheck_job(name, s, p):
        spec = CheckSpec(f"slice-crosscheck-{name}-s{s:g}-p{p:g}", "rmk-2.10",
                         "identity", 1e-3)

        def job():
            lhs, rhs = slice_seminorm_crosscheck(
                fam[name], SmoothnessParams(s, p), 0, bundle)
            return spec.row("core", lhs, rhs)
        return job

    for name in _CROSSCHECK_MEMBERS:
        for s, p in _CROSSCHECK_PAIRS:
            jobs.append(crosscheck_job(name, s, p))

    def sandwich_job(p):
        lower_spec = CheckSpec(f"slice-sandwich-lower-p{p:g}", "eq-slice-s1",
                               "upper", 1e-9)
        upper_spec = CheckSpec(f"slice-sandwich-upper-p{p:g}", "eq-slice-s1",
                               "upper", 1e-9)

        def job():
            params = SmoothnessParams(1.0, p)
            frames = random_frames(2, 5, seed=seed + 11)
            worst_lower = 0.0
            worst_upper = 0.0
            used = 0
            for name, member in fam.items():
                for frame in frames:
                    lower, value, upper = slicing_bounds(member, params,
                                                         frame, bundle)
                    if value <= 0.0:
                        warnings.warn(f"member {name} carries no energy, "
                                      "skipped in the slicing sandwich")
                        break
                    worst_lower = max(worst_lower, lower / value)
                    worst_upper = max(worst_upper, value / upper)
                    used += 1
            note = f"{used} member/frame combinations"
            return [lower_spec.row("core", worst_lower, 1.0, note=note),
                    upper_spec.row("core", worst_upper, 1.0, note=note)]
        return job

    jobs.append(sandwich_job(2.0))
    jobs.append(sandwich_job(1.5))

    return _collect("core", jobs, series)


# ---------------------------------------------------------------------------
# inequality suite: empirical constants under resolution doubling

_INEQ_MEMBERS = ("radial", "aniso", "shear2", "hermite", "twobump")


def _shear_matrix(sigma: float) -> np.ndarray:
    return np.array([[1.0, sigma], [0.0, 1.0]])


def _inequalities(scale: float, seed: int) -> VerificationReport:
    """Embedding, ordering, interpolation, reverse, and weak-norm constants
    under the resolution-doubling protocol."""
    fam = standard_family()
    base = QuadratureBundle.default(2).scaled(scale)
    tiers = {"base": base, "doubled": base.scaled(2.0)}

    @functools.cache
    def prof(name, s, p, tier):
        return _energy_profile(fam[name], SmoothnessParams(s, p), tiers[tier])

    def energy(name, s, p, tier):
        return affine_energy(fam[name], SmoothnessParams(s, p), tiers[tier],
                             profile=prof(name, s, p, tier)).value

    def norm_q(name, q, tier):
        quads = tiers[tier]
        return lp_norm(fam[name], q, quads.box_for(fam[name]))

    def drift_job(spec, constant_fn):
        def job():
            per_tier = {}
            notes = {}
            ok = True
            for tier in ("base", "doubled"):
                ratios = constant_fn(tier)
                ok = ok and all(math.isfinite(r) and r > 0 for r in ratios)
                per_tier[tier] = max(ratios)
                notes[tier] = ratios
            low = min(notes["doubled"])
            spread = max(notes["doubled"]) / low if low > 0 else math.inf
            note = (f"K={_fmt(per_tier['doubled'])} family spread "
                    f"{_fmt(spread)}")
            return spec.row("inequalities", per_tier["base"],
                            per_tier["doubled"], note=note, extra_passed=ok)
        return job

    validate_subcritical(0.5, 2.0, 2)
    validate_balance(0.5, 4.0, 1.0, 2.0, 2)

    jobs = []

    spec11 = CheckSpec("thm1.1-sobolev-constant", "thm1.1", "drift", 0.05)
    jobs.append(drift_job(spec11, lambda tier: [
        norm_q(name, 4.0, tier) / energy(name, 0.5, 2.0, tier)
        for name in _INEQ_MEMBERS]))

    spec12 = CheckSpec("thm1.2-energy-ordering", "thm1.2", "drift", 0.05)
    jobs.append(drift_job(spec12, lambda tier: [
        energy(name, 0.5, 4.0, tier) / energy(name, 1.0, 2.0, tier)
        for name in _INEQ_MEMBERS]))

    def domain_job():
        spec = CheckSpec("thm1.5-energy-domain", "thm1.5", "drift", 0.05)

        def ratios(tier):
            out = []
            for name in _INEQ_MEMBERS:
                pr = prof(name, 0.5, 2.0, tier)
                out.append(seminorm(fam[name], SmoothnessParams(0.5, 2.0),
                                    tiers[tier], profile=pr)
                           / energy(name, 0.5, 2.0, tier))
            return out

        def job():
            base_ratios = ratios("base")
            doubled_ratios = ratios("doubled")
            # the seminorm dominates the energy, so each ratio sits at or
            # above one; values below would mean the aggregation broke
            floor_ok = min(doubled_ratios) >= 1.0 - 1e-9
            note = (f"ratio range [{_fmt(min(doubled_ratios))}, "
                    f"{_fmt(max(doubled_ratios))}]")
            return spec.row("inequalities", max(base_ratios),
                            max(doubled_ratios), note=note,
                            extra_passed=floor_ok)
        return job

    jobs.append(domain_job())

    spec16 = CheckSpec("thm1.6-gn-interpolation", "thm1.6", "drift", 0.05)
    jobs.append(drift_job(spec16, lambda tier: [
        energy(name, 0.5, 2.0, tier)
        / (norm_q(name, 2.0, tier) ** 0.5 * energy(name, 1.0, 2.0, tier) ** 0.5)
        for name in _INEQ_MEMBERS]))

    def reverse_classic_job():
        spec = CheckSpec("thm1.7-reverse-classic", "thm1.7", "drift", 0.05)
        rng = np.random.default_rng(seed + 41)
        transforms = [np.eye(2)]
        transforms += [random_unimodular(rng, 2, (1.0, 8.0)) for _ in range(4)]
        transforms += [_shear_matrix(3.0), _shear_matrix(5.0)]

        def constant(tier):
            quads = tiers[tier]
            bump = fam["bump"]
            params = SmoothnessParams(1.0, 2.0)
            lhs = (lp_norm(bump, 2.0, quads.box_for(bump)) ** 0.5
                   * seminorm(bump, params, quads) ** 0.5)
            return [lhs / seminorm(bump.affine_compose(T), params, quads)
                    for T in transforms]

        return drift_job(spec, constant)

    jobs.append(reverse_classic_job())

    def reverse_affine_job():
        spec = CheckSpec("thm1.8-reverse-affine", "thm1.8", "drift", 0.05)
        stressed = [fam["bump"],
                    fam["bump"].affine_compose(_shear_matrix(2.0)),
                    fam["bump"].affine_compose(_shear_matrix(4.0))]

        def constant(tier):
            params = SmoothnessParams(1.0, 2.0)
            return [_noimpro_ratio(member, 2.0, params, tiers[tier])
                    for member in stressed]

        return drift_job(spec, constant)

    jobs.append(reverse_affine_job())

    def weak_job():
        res_base = max(16, int(round(64 * scale)))
        res_fine = max(res_base + 8, int(round(96 * scale)))
        drift_spec = CheckSpec("thm-weak-grid-drift", "prop-lap+thm-weak",
                               "drift", 0.05)
        lap_spec = CheckSpec("prop-lap-directional-floor", "prop-lap+thm-weak",
                             "upper", 1e-9)
        bundle3 = QuadratureBundle.default(3).scaled(scale)
        params = SmoothnessParams(2.0, 1.0)

        def job():
            ratios = {}
            lap_row = None
            for res in (res_base, res_fine):
                grid = weak_grid_field(res)
                with warnings.catch_warnings():
                    # this check deliberately runs the pair the two-sided
                    # comparisons exclude; the one-sided bound is the target
                    warnings.simplefilter("ignore", RuntimeWarning)
                    pr = directional_profile(grid, params, bundle3)
                energy_val = affine_energy(grid, params, bundle3,
                                           profile=pr).value
                ratios[res] = weak_quasinorm(grid, 3.0) / energy_val
                if res == res_base:
                    # radial profile: identity is the exact minimizer, so
                    # the gamma=1 bound must cage every direction
                    lap = sum(np.gradient(np.gradient(
                        grid.values, grid.spacing[ax], axis=ax),
                        grid.spacing[ax], axis=ax) for ax in range(3))
                    lap_l1 = float(np.abs(lap).sum()) * grid.cell_volume
                    bound = c_gamma(1.0, 3)[0] * lap_l1
                    lap_row = lap_spec.row(
                        "inequalities", bound, pr.min_value,
                        note=f"grid {res}^3, laplacian L1 {_fmt(lap_l1)}")
                del grid, pr  # free the coarse partials the profile holds
            drift_row = drift_spec.row(
                "inequalities", ratios[res_base], ratios[res_fine],
                note=f"grids {res_base}^3 vs {res_fine}^3")
            return [drift_row, lap_row]
        return job

    jobs.append(weak_job())

    return _collect("inequalities", jobs)


# ---------------------------------------------------------------------------
# optimizer suite

_SQRT_PI = math.sqrt(math.pi)


def _optimizer(scale: float, seed: int) -> VerificationReport:
    """Minimizer oracles, criticality residuals, directional bounds, and the
    descent construction on the sheared family."""
    fam = standard_family()
    bundle = QuadratureBundle.default(2).scaled(scale)
    opts = OptimizerOptions()
    params = SmoothnessParams(1.0, 2.0)
    sigma = bundle.sphere.area
    series: dict = {}

    @functools.cache
    def minimized(name):
        return minimize(fam[name], params, opts, bundle)

    target_matrix = np.diag([2.0 ** -0.5, 2.0 ** 0.5])

    jobs = []

    def value_job():
        spec = CheckSpec("minimize-aniso-value", "thm1.3", "identity", 1e-3)

        def job():
            T, value, trace = minimized("aniso")
            series["trace_vs_iteration"] = [
                ("aniso-objective", float(i), v)
                for i, v in enumerate(trace.objectives)]
            return spec.row("optimizer", value, _SQRT_PI,
                            note=f"{len(trace.objectives)} iterations, "
                                 f"{trace.terminal_reason}")
        return job

    def matrix_job():
        spec = CheckSpec("minimize-aniso-matrix", "thm1.3", "deviation", 1e-3)

        def job():
            T, _, _ = minimized("aniso")
            dev = float(np.abs(T.matrix - target_matrix).max())
            return spec.row("optimizer", dev, 0.0,
                            note="target diag(2^-1/2, 2^1/2)")
        return job

    def residual_job():
        spec = CheckSpec("critical-residuals-aniso", "eq-equi-formula",
                         "deviation", 1e-4)

        def job():
            T, _, _ = minimized("aniso")
            r_general, r_diag = critical_residuals(fam["aniso"], T, 2.0,
                                                   bundle)
            return spec.row("optimizer", max(r_general, r_diag), 0.0,
                            note=f"general {r_general:.2e} diag {r_diag:.2e}")
        return job

    def remark_job():
        spec = CheckSpec("remark-p2-equality", "rmk-p2", "identity", 1e-3)

        def job():
            T, _, _ = minimized("aniso")
            composed = fam["aniso"].affine_compose(T.matrix)
            energy = affine_energy(fam["aniso"], params, bundle).value
            rhs = math.sqrt(sigma / 2.0) * seminorm(composed, params, bundle)
            return spec.row("optimizer", energy, rhs)
        return job

    def bound_job():
        spec = CheckSpec("directional-bound-aniso", "thm1.4", "identity", 1e-3)

        def job():
            T, _, _ = minimized("aniso")
            report = directional_lower_bound_check(fam["aniso"], T, params,
                                                   bundle)
            # composition with the minimizer restores radial symmetry, so
            # every direction carries the share 2^{-1/2} at p=2
            return spec.row("optimizer", report.min_ratio, 2.0 ** -0.5,
                            note=f"floor {_fmt(report.threshold)}",
                            extra_passed=report.passed)
        return job

    def sandwich_job(name):
        lower_spec = CheckSpec(f"affine-classic-lower-{name}",
                               "cor-affine-classic", "upper", 1e-6)
        upper_spec = CheckSpec(f"affine-classic-upper-{name}",
                               "cor-affine-classic", "upper", 1e-6)

        def job():
            T, value, _ = minimized(name)
            energy = affine_energy(fam[name], params, bundle).value
            c_lower = c1_first_approach(2)[0]
            c_upper = c1_second_approach(2.0, 2)
            scale_factor = sigma ** 0.5 * value
            note = f"minimized norm {_fmt(value)}"
            return [
                lower_spec.row("optimizer", c_lower * scale_factor, energy,
                               note=note),
                upper_spec.row("optimizer", energy, c_upper * scale_factor,
                               note=note),
            ]
        return job

    def radial_job():
        spec = CheckSpec("minimize-radial-early-exit", "thm1.3", "upper",
                         1e-12)

        def job():
            T, value, trace = minimized("radial")
            dev = float(np.abs(T.matrix - np.eye(2)).max())
            return spec.row("optimizer", float(len(trace.objectives)), 3.0,
                            note=f"|T-I| {dev:.2e}, {trace.terminal_reason}",
                            extra_passed=dev <= 1e-6)
        return job

    def shear_value_job():
        spec = CheckSpec("minimize-shear2-value", "thm1.3", "identity", 1e-3)

        def job():
            T, value, trace = minimized("shear2")
            start = objective(fam["shear2"], np.eye(2), params, bundle)
            return spec.row("optimizer", value, _SQRT_PI,
                            note=f"start {_fmt(start)}, "
                                 f"{len(trace.objectives)} iterations",
                            extra_passed=value < start)
        return job

    def descent_job():
        spec = CheckSpec("descent-strong-shears", "thm1.4", "upper", 1e-12)

        def job():
            # contrapositive of the minimizer bound: a member whose weakest
            # direction falls under the full constant cannot be minimal, so
            # the matching stretch must strictly lower the objective
            c_first, lam_star = c1_first_approach(2)
            worst_ratio = 0.0
            all_descend = True
            none_pass = True
            drops = []
            for sig, member in strong_shear_members():
                report = directional_lower_bound_check(
                    member, np.eye(2), params, bundle, threshold=c_first)
                none_pass = none_pass and not report.passed
                worst_ratio = max(worst_ratio, report.min_ratio)
                _, old, new = descent_step(member, params,
                                           report.weak_direction, lam_star,
                                           bundle)
                all_descend = all_descend and new < old
                drops.append(1.0 - new / old)
            note = (f"5 members, smallest drop {_fmt(min(drops))}, "
                    f"lambda {_fmt(lam_star)}")
            return spec.row("optimizer", worst_ratio, c_first, note=note,
                            extra_passed=all_descend and none_pass)
        return job

    jobs += [value_job(), matrix_job(), residual_job(), remark_job(),
             bound_job(), sandwich_job("aniso"), sandwich_job("radial"),
             radial_job(), shear_value_job(), descent_job()]

    return _collect("optimizer", jobs, series)


# ---------------------------------------------------------------------------
# non-improvability suite

_NOIMPRO_RADII = (1.0, 0.5, 0.25, 0.125)


def _noimpro_ratio(member, q, params, bundle):
    pr = directional_profile(member, params, bundle)
    numerator = (lp_norm(member, q, bundle.box_for(member)) ** 0.5
                 * seminorm(member, params, bundle, profile=pr) ** 0.5)
    return numerator / affine_energy(member, params, bundle, profile=pr).value


def _no_improvement(scale: float, seed: int) -> VerificationReport:
    """Thin-ridge blow-up of the mixed-norm ratio, with the bounded control
    at q = p."""
    # the thin-ridge profiles concentrate in an angular window of width
    # about R * axis_width / transverse_width, so the sphere rule needs
    # this much resolution before the control experiment stabilizes
    bundle = QuadratureBundle.default(2, sphere_resolution=768).scaled(scale)
    params = SmoothnessParams(1.0, 1.0)

    series: dict = {"ratio_vs_R": []}

    def ratios(name, q):
        """The ratio at every radius, recorded as the plot series `name`."""
        values = [_noimpro_ratio(ridge_member(r), q, params, bundle)
                  for r in _NOIMPRO_RADII]
        series["ratio_vs_R"] += [(name, r, v)
                                 for r, v in zip(_NOIMPRO_RADII, values)]
        return values

    jobs = []

    def main_job():
        blowup_spec = CheckSpec("noimpro-blowup", "prop-no-impro", "lower",
                                1e-12)
        monotone_spec = CheckSpec("noimpro-monotone", "prop-no-impro",
                                  "monotone", 1e-9)

        def job():
            values = ratios("noimpro-q4", 4.0)
            note = "ratios " + " ".join(_fmt(v) for v in values)
            return [
                blowup_spec.row("noimpro", values[-1] / values[0], 2.0,
                                note=note),
                monotone_spec.row("noimpro", float(np.diff(values).min()),
                                  0.0, note=note),
            ]
        return job

    def control_job():
        spec = CheckSpec("noimpro-control", "prop-no-impro", "drift", 0.20)

        def job():
            values = ratios("noimpro-control", 1.0)
            return spec.row("noimpro", max(values), min(values),
                            note="ratios " + " ".join(_fmt(v) for v in values))
        return job

    jobs += [main_job(), control_job()]
    return _collect("noimpro", jobs, series)


_SUITES = {
    "core": _core_identities,
    "inequalities": _inequalities,
    "optimizer": _optimizer,
    "noimpro": _no_improvement,
}


def run_suite(name: str, scale: float = 1.0, seed: int = 0) -> VerificationReport:
    """The named suite's report, with the plot series it feeds."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}")
    if not (math.isfinite(scale) and scale > 0.0):
        raise ValueError(f"scale must be finite and positive, got {scale!r}")
    return _SUITES[name](scale, seed)


def suite_names() -> list:
    return list(_SUITES)


__all__ = ["CheckSpec", "run_suite", "suite_names"]
