"""Command line surface: energies, optimization, suites, constants, reports.

Exit codes: 0 all requested work passed, 1 at least one check failed,
2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .affine_energy import affine_energy
from .config import ConfigError, parse_config
from .constants import (c1_first_approach, c1_general, c1_second_approach,
                        c_gamma)
from .fields import NumericalFailureError
from .reporting import write_plot_csv
from .seminorms import directional_profile, seminorm, starred_seminorm
from .sl_opt import minimize
from .suites import run_suite, suite_names

_TRACE_HEADER = "iteration,objective,grad_norm,step_size,transform_hash"


def _scale(text: str) -> float:
    """A --scale value, finite and positive; argparse exits 2 otherwise."""
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and positive: {text}")
    return value


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="affsob",
        description="Directional smoothness energies, their affine-invariant "
                    "aggregation, and the verification suites around them.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_energy = sub.add_parser("energy", help="seminorm, profile, and energy "
                                             "for one configuration")
    p_energy.add_argument("--config", required=True)
    p_energy.add_argument("--out", help="write the full JSON result here")

    p_opt = sub.add_parser("optimize", help="minimize the composed seminorm "
                                            "over determinant-one transforms")
    p_opt.add_argument("--config", required=True)
    p_opt.add_argument("--out", help="write the iteration trace CSV here")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", required=True,
                          choices=suite_names() + ["all"])
    p_verify.add_argument("--out", help="directory for per-suite CSV files")
    p_verify.add_argument("--scale", type=_scale, default=1.0,
                          help="multiplier on every quadrature resolution")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--timing", action="store_true",
                          help="include wall seconds in the CSV")

    p_const = sub.add_parser("constants", help="evaluate a closed-form "
                                               "constant")
    p_const.add_argument("--formula", required=True,
                         choices=["c1-first", "c1-tilde", "c1-general",
                                  "c-gamma"])
    p_const.add_argument("--N", type=int, required=True)
    p_const.add_argument("--p", type=float)
    p_const.add_argument("--s", type=float)
    p_const.add_argument("--K1", type=float)
    p_const.add_argument("--K2", type=float)
    p_const.add_argument("--gamma", type=float)

    p_report = sub.add_parser("report", help="run every suite and emit all "
                                             "CSV tables and plot series")
    p_report.add_argument("--out", required=True)
    p_report.add_argument("--scale", type=_scale, default=1.0)
    p_report.add_argument("--seed", type=int, default=0)
    p_report.add_argument("--timing", action="store_true")
    return parser


def _json_text(value, indent: str = "") -> str:
    """json.dumps(value, indent=2, sort_keys=True) for dicts with string
    keys, lists and JSON scalars.  indent makes json take its pure-Python
    encoder, whose calls per item cost more than float.__repr__ itself on
    a 3-D profile's floats.  The repr of a list of floats joins their
    float.__repr__ with ", " in C, as json writes finite floats; a sum of
    finite floats is finite short of an overflow, and an overflow only
    sends the list down the item-by-item path.  Scalars go to json.dumps."""
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = (",\n" + inner).join(
            f"{json.dumps(key)}: {_json_text(value[key], inner)}"
            for key in sorted(value))
        return "{\n" + inner + body + "\n" + indent + "}"
    if not isinstance(value, list):
        return json.dumps(value)
    if not value:
        return "[]"
    if set(map(type, value)) == {float} and sum(value) - sum(value) == 0.0:
        body = repr(value)[1:-1].replace(", ", ",\n" + inner)
    else:
        body = (",\n" + inner).join(_json_text(item, inner) for item in value)
    return "[\n" + inner + body + "\n" + indent + "]"


def _energy_payload(cfg) -> dict:
    """The semi-norm, affine energy and profile of one configuration, as
    `affsob energy --out` writes them."""
    profile = directional_profile(cfg.field, cfg.params, cfg.quadrature)
    result = affine_energy(cfg.field, cfg.params, cfg.quadrature,
                           profile=profile)
    payload = {
        "field": cfg.field_name,
        "s": cfg.params.s,
        "p": cfg.params.p,
        "dimension": cfg.dimension,
        "seminorm": seminorm(cfg.field, cfg.params, cfg.quadrature,
                             profile=profile),
        "affine_energy": result.value,
        "degenerate": result.degenerate,
        "tail_budget": result.tail_budget,
        "profile": {
            "directions": profile.sphere.nodes.tolist(),
            "values": profile.values.tolist(),
        },
    }
    if not cfg.params.fractional:
        payload["starred_seminorm"] = starred_seminorm(
            cfg.field, cfg.params.s, cfg.params.p, cfg.quadrature,
            profile=profile)
    return payload


def _cmd_energy(args) -> int:
    cfg = parse_config(args.config)
    payload = _energy_payload(cfg)
    print(f"field {cfg.field_name}: seminorm {payload['seminorm']!r}, "
          f"energy {payload['affine_energy']!r}, "
          f"degenerate {payload['degenerate']}")
    if args.out:
        Path(args.out).write_text(_json_text(payload), encoding="utf-8")
    return 0


def _cmd_optimize(args) -> int:
    cfg = parse_config(args.config)
    T, value, trace = minimize(cfg.field, cfg.params, cfg.optimizer,
                               cfg.quadrature)
    start = trace.objectives[0] if trace.objectives else value
    print(f"minimized value {value!r} (started {start!r}) after "
          f"{len(trace.objectives)} iterations: {trace.terminal_reason}")
    for row in np.asarray(T.matrix):
        print("  " + " ".join(f"{x: .12f}" for x in row))
    if args.out:
        lines = [_TRACE_HEADER]
        for i in range(len(trace.objectives)):
            lines.append(",".join([
                str(i), repr(trace.objectives[i]), repr(trace.grad_norms[i]),
                repr(trace.step_sizes[i]), trace.transform_hashes[i]]))
        Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


def _run_suites(names, args, out_dir: Path | None) -> tuple[bool, dict]:
    """Run the named suites, print each summary and failed row, write each
    table to out_dir when given, and collect the plot series by file."""
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    all_passed = True
    plot_rows = {}
    for name in names:
        report = run_suite(name, scale=args.scale, seed=args.seed)
        print(report.summary())
        for check in report.failures():
            print(f"  FAIL {check.check_id}: lhs={check.lhs!r} "
                  f"rhs={check.rhs!r} tol={check.tolerance!r} {check.note}")
        if out_dir is not None:
            report.write_csv(out_dir / f"{name}.csv",
                             include_seconds=args.timing)
        all_passed = all_passed and report.passed
        for stem, rows in report.series.items():
            plot_rows.setdefault(stem, []).extend(rows)
    return all_passed, plot_rows


def _cmd_verify(args) -> int:
    names = suite_names() if args.suite == "all" else [args.suite]
    all_passed, _ = _run_suites(names, args,
                                Path(args.out) if args.out else None)
    return 0 if all_passed else 1


def _require(args, names) -> list:
    values = []
    for name in names:
        value = getattr(args, name)
        if value is None:
            raise ConfigError(f"--{name} is required for this formula")
        values.append(value)
    return values


def _cmd_constants(args) -> int:
    try:
        if args.formula == "c1-first":
            value, argmax = c1_first_approach(args.N)
            print(f"{value!r} {argmax!r}")
        elif args.formula == "c1-tilde":
            (p,) = _require(args, ["p"])
            print(repr(c1_second_approach(p, args.N)))
        elif args.formula == "c1-general":
            s, k1, k2 = _require(args, ["s", "K1", "K2"])
            value, argmax, _ = c1_general(s, args.N, k1, k2)
            print(f"{value!r} {argmax!r}")
        else:
            (gamma,) = _require(args, ["gamma"])
            value, argmax = c_gamma(gamma, args.N)
            print(f"{value!r} {argmax!r}")
    except ValueError as exc:
        # an argument outside a formula's range is a configuration error
        raise ConfigError(str(exc)) from exc
    return 0


def _cmd_report(args) -> int:
    out_dir = Path(args.out)
    all_passed, plot_rows = _run_suites(suite_names(), args, out_dir)
    for stem, rows in plot_rows.items():
        write_plot_csv(out_dir / f"{stem}.csv", rows)
    print(f"wrote {len(suite_names())} suite tables and "
          f"{len(plot_rows)} plot series to {out_dir}")
    return 0 if all_passed else 1


_COMMANDS = {
    "energy": _cmd_energy,
    "optimize": _cmd_optimize,
    "verify": _cmd_verify,
    "constants": _cmd_constants,
    "report": _cmd_report,
}


def cli_main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(cli_main())


__all__ = ["cli_main", "main"]


if __name__ == "__main__":
    main()
