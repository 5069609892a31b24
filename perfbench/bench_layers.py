"""Which library names the traced pass wraps, and the per-layer metrics.

Layers are the package's modules.  `family`, `reporting` and `constants`
are too cheap to time on their own and are left unwrapped.
"""
from __future__ import annotations

import importlib

import numpy as np

from bench_trace import Tracer, self_times

# (unit, metric name) in the order the traced run reports them
PER_LAYER = [
    ("s", "fields.line_values.self_s"),
    ("count", "fields.line_values.calls"),
    ("count", "fields.line_values.gauss_evals"),
    ("s", "fields.difference_lp_samples.self_s"),
    ("s", "fields.evaluate.self_s"),
    ("count", "fields.evaluate.points"),
    ("count", "fields.affine_compose.calls"),
    ("s", "quadrature.directional_box.self_s"),
    ("count", "quadrature.directional_box.calls"),
    ("count", "quadrature.directional_box.nodes"),
    ("count", "quadrature.directional_box.clamped"),
    ("s", "quadrature.box_fitted.self_s"),
    ("s", "quadrature.radial_from_samples.self_s"),
    ("s", "quadrature.sphere.self_s"),
    ("count", "quadrature.sphere.calls"),
    ("s", "seminorms.directional_profile.self_s"),
    ("count", "seminorms.directional_profile.calls"),
    ("count", "seminorms.directions_swept"),
    ("s", "seminorms.seminorm.self_s"),
    ("s", "affine_energy.aggregate.self_s"),
    ("s", "sl_opt.minimize.self_s"),
    ("count", "sl_opt.objective.calls"),
    ("s", "sl_opt.objective.self_s"),
    ("count", "sl_opt.numeric_gradient.calls"),
    ("count", "sl_opt.iterations"),
    ("ratio", "sl_opt.armijo.accept_ratio"),
    ("s", "suites.run_suite.self_s"),
    ("s", "config.parse_config.self_s"),
    ("s", "cli.cli_main.self_s"),
    ("s", "process.wall_s"),
    ("s", "process.cpu_s"),
    ("s", "trace.overhead_s"),
]


def _count_line_values(tracer, parent, args, kwargs, result):
    field = args[0]
    tracer.count("fields.line_values.gauss_evals",
                 result.shape[0] * result.shape[1] * len(field.terms))


def _count_points(tracer, parent, args, kwargs, result):
    tracer.count("fields.evaluate.points", np.size(result))


def _count_directional_box(tracer, parent, args, kwargs, result):
    box = result[0]
    quadrature = importlib.import_module("affsob.quadrature")
    cap = getattr(quadrature, "_MAX_NODES_PER_AXIS", 640)
    tracer.count("quadrature.directional_box.nodes", box.weights.size)
    tracer.count("quadrature.directional_box.clamped",
                 sum(m >= cap for m in box.nodes_per_axis))
    # one elongated box per direction a profile sweeps
    if parent == "seminorms.directional_profile":
        tracer.count("seminorms.directions_swept")


def _count_minimize(tracer, parent, args, kwargs, result):
    trace = result[2]
    tracer.count("sl_opt.iterations", len(trace.objectives))
    tracer.count("sl_opt.armijo.accepted",
                 sum(1 for step in trace.step_sizes if step > 0))


def _count_matrix_exp(tracer, parent, args, kwargs, result):
    # exponentials taken directly by the descent loop are Armijo trials;
    # the ones under numeric_gradient are gradient probes
    if parent == "sl_opt.minimize":
        tracer.count("sl_opt.armijo.trials")


def install(tracer: Tracer) -> None:
    """Wrap every traced name; tracer.restore() undoes all of it."""
    # the package re-exports functions under some module names
    # (affsob.affine_energy is a function), so fetch the modules by path
    (affsob, affine_energy, cli, config, fields, quadrature, seminorms,
     sl_opt, suites) = [importlib.import_module(name) for name in (
         "affsob", "affsob.affine_energy", "affsob.cli", "affsob.config",
         "affsob.fields", "affsob.quadrature", "affsob.seminorms",
         "affsob.sl_opt", "affsob.suites")]
    modules = [affsob, affine_energy, cli, config, quadrature, seminorms,
               sl_opt, suites]
    field_cls = fields.AnalyticField
    tracer.patch(field_cls, "line_values", "fields.line_values",
                 _count_line_values)
    tracer.patch(field_cls, "difference_lp_samples",
                 "fields.difference_lp_samples")
    tracer.patch(field_cls, "evaluate", "fields.evaluate", _count_points)
    tracer.patch(field_cls, "affine_compose", "fields.affine_compose")
    tracer.patch(quadrature.BoxQuadrature, "fitted", "quadrature.box_fitted")
    everywhere = [
        (quadrature, "directional_box", "quadrature.directional_box",
         _count_directional_box),
        (quadrature, "radial_from_samples", "quadrature.radial_from_samples",
         None),
        (quadrature, "build_sphere_quadrature", "quadrature.sphere", None),
        (seminorms, "directional_profile", "seminorms.directional_profile",
         None),
        (seminorms, "seminorm", "seminorms.seminorm", None),
        (affine_energy, "affine_energy", "affine_energy.aggregate", None),
        (affine_energy, "psi_energy", "affine_energy.aggregate", None),
        (sl_opt, "minimize", "sl_opt.minimize", _count_minimize),
        (sl_opt, "objective", "sl_opt.objective", None),
        (sl_opt, "numeric_gradient", "sl_opt.numeric_gradient", None),
        (sl_opt, "matrix_exp", "sl_opt.matrix_exp", _count_matrix_exp),
        (suites, "run_suite", "suites.run_suite", None),
        (config, "parse_config", "config.parse_config", None),
        (cli, "cli_main", "cli.cli_main", None),
    ]
    for home, attr, name, count in everywhere:
        tracer.patch_everywhere(modules, home, attr, name, count)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced pass (process.* and trace.* are
    filled in by the caller)."""
    out = {name: 0.0 for _, name in PER_LAYER}
    for name, value in self_times(tracer.spans).items():
        key = name + ".self_s"
        if key in out:
            out[key] += value
    for name, value in tracer.counters.items():
        if name in out:
            out[name] = value
    trials = tracer.counters.get("sl_opt.armijo.trials", 0.0)
    accepted = tracer.counters.get("sl_opt.armijo.accepted", 0.0)
    out["sl_opt.armijo.accept_ratio"] = accepted / trials if trials else 0.0
    return out
