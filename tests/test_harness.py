"""Run configuration, reporting surfaces, CLI exit codes, suite plumbing."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import affsob
from affsob import (AnalyticField, CheckResult, CheckSpec, ConfigError,
                    NumericalFailureError, VerificationReport, cli_main,
                    config_from_dict, parse_config, write_plot_csv)
from affsob.config import validate_balance, validate_subcritical
from affsob.suites import run_suite, suite_names


def test_parse_config_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config(bad)
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ConfigError, match="JSON object"):
        parse_config(listy)


def test_config_defaults_and_overrides():
    cfg = config_from_dict({})
    assert cfg.dimension == 2
    assert cfg.params.s == 1.0 and cfg.params.p == 2.0
    assert cfg.field_name == "radial"
    cfg = config_from_dict({"field": "aniso", "s": 0.5,
                            "quadrature": {"box_nodes": 24},
                            "optimizer": {"max_iters": 7}})
    assert cfg.field_name == "aniso"
    assert cfg.quadrature.box_nodes == 24
    assert cfg.optimizer.max_iters == 7


def test_config_rejects_bad_entries():
    with pytest.raises(ConfigError, match="unknown config keys"):
        config_from_dict({"colour": 1})
    with pytest.raises(ConfigError, match="dimension must be 2 or 3"):
        config_from_dict({"dimension": 4})
    with pytest.raises(ConfigError, match="s must be positive"):
        config_from_dict({"s": 0.0})
    with pytest.raises(ConfigError, match="unknown field"):
        config_from_dict({"field": "mystery"})
    with pytest.raises(ConfigError, match="dimension"):
        config_from_dict({"field": "radial", "dimension": 3})
    with pytest.raises(ConfigError, match="unknown quadrature keys"):
        config_from_dict({"quadrature": {"sphere": 8}})
    with pytest.raises(ConfigError, match="bad optimizer options"):
        config_from_dict({"optimizer": {"max_iters": -1}})
    with pytest.raises(ConfigError, match="inline"):
        config_from_dict({"field": {"shape": "blob"}})


@pytest.mark.parametrize("raw,match", [
    ({"seed": 3}, "unknown config keys"),
    ({"optimizer": {"restarts": 1}}, "unknown optimizer keys"),
    ({"optimizer": {"grad_tol": 1e-8}}, "unknown optimizer keys"),
    ({"quadrature": {"box_halfwidth": 8.0}}, "unknown quadrature keys"),
    ({"quadrature": {"t_min": 1e-4}}, "unknown quadrature keys"),
    ({"quadrature": {"t_max": 1e3}}, "unknown quadrature keys"),
])
def test_config_rejects_settings_without_a_use(tmp_path, capsys, raw, match):
    # the optimizer block sets the iteration limit only, no seed enters an
    # energy or a descent, and the box width and the radial range are fixed
    with pytest.raises(ConfigError, match=match):
        config_from_dict(raw)
    config = tmp_path / "run.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    assert cli_main(["optimize", "--config", str(config)]) == 2
    assert match in capsys.readouterr().err


def test_config_inline_field():
    cfg = config_from_dict({"field": {"terms": [{
        "coefficient": 1.0,
        "polynomial": {"0,0": 1.0},
        "mean": [0.0, 0.0],
        "precision": [[1.0, 0.0], [0.0, 1.0]],
    }]}})
    assert cfg.field_name == "inline"
    assert cfg.field(np.zeros(2)) == pytest.approx(1.0)


def test_parameter_validators():
    validate_subcritical(0.5, 2.0, 2)
    with pytest.raises(ConfigError):
        validate_subcritical(1.0, 2.0, 2)
    validate_balance(0.5, 4.0, 1.0, 2.0, 2)
    with pytest.raises(ConfigError):
        validate_balance(0.5, 4.0, 1.0, 3.0, 2)


def test_check_spec_validation():
    with pytest.raises(ValueError):
        CheckSpec("id", "thm", "sideways", 1e-3)
    with pytest.raises(ValueError):
        CheckSpec("id", "thm", "identity", 0.0)


def test_check_spec_relation_semantics():
    ident = CheckSpec("a", "t", "identity", 1e-3)
    assert ident.row("s", 1.0005, 1.0).passed
    assert not ident.row("s", 1.01, 1.0).passed
    upper = CheckSpec("b", "t", "upper", 1e-6)
    assert upper.row("s", 0.9, 1.0).passed
    assert not upper.row("s", 1.1, 1.0).passed
    lower = CheckSpec("c", "t", "lower", 1e-6)
    assert lower.row("s", 1.1, 1.0).passed
    assert not lower.row("s", 0.9, 1.0).passed
    dev = CheckSpec("d", "t", "deviation", 1e-3)
    row = dev.row("s", 5e-4, 123.0)
    assert row.passed and row.rhs == 1e-3
    assert not dev.row("s", 2e-3, 0.0).passed
    mono = CheckSpec("e", "t", "monotone", 1e-9)
    assert mono.row("s", 0.2, 7.0).passed
    assert not mono.row("s", -0.1, 7.0).passed
    assert not ident.row("s", float("nan"), 1.0).passed
    assert not ident.row("s", 1.0, 1.0, extra_passed=False).passed


def test_check_result_csv_row():
    row = CheckResult("core", "my-check", "thm-x", 1.5, 2.0, 0.75, 1e-3,
                      True, seconds=0.25, note="fine")
    assert row.csv_row() == "core,my-check,thm-x,1.5,2.0,0.75,0.001,true,"
    assert row.csv_row(include_seconds=True).endswith(",true,0.25")


def test_report_roundtrip_and_summary():
    report = VerificationReport("demo")
    report.checks.append(CheckResult("demo", "one", "t", 1.0, 1.0, 1.0,
                                     1e-3, True))
    report.checks.append(CheckResult("demo", "two", "t", 2.0, 1.0, 2.0,
                                     1e-3, False, note="off"))
    assert not report.passed
    assert [c.check_id for c in report.failures()] == ["two"]
    assert "1/2 checks passed [FAIL]" in report.summary()
    assert report.csv_text().splitlines()[1:] == [
        "demo,one,t,1.0,1.0,1.0,0.001,true,",
        "demo,two,t,2.0,1.0,2.0,0.001,false,"]


def test_report_csv_header_and_determinism(tmp_path):
    report = VerificationReport("demo")
    report.checks.append(CheckResult("demo", "one", "t", 1.0 / 3.0, 1.0,
                                     1.0 / 3.0, 1e-3, True, seconds=0.1))
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    report.write_csv(path_a)
    report.write_csv(path_b)
    text = path_a.read_text(encoding="utf-8")
    assert text.startswith("suite,check_id,theorem,lhs,rhs,ratio,"
                           "tolerance,pass,seconds\n")
    assert repr(1.0 / 3.0) in text
    assert ",0.1" not in text  # seconds stay blank unless requested
    assert text == path_b.read_text(encoding="utf-8")


def test_write_plot_csv(tmp_path):
    path = tmp_path / "plot.csv"
    write_plot_csv(path, [("series-a", 1.0, 2.0), ("series-b", 0.5, 0.25)])
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "series,x,y"
    assert lines[1] == "series-a,1.0,2.0"


def test_run_suite_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("imaginary")
    assert set(suite_names()) == {"core", "inequalities", "optimizer",
                                  "noimpro"}


def test_cli_constants_exact_output(capsys):
    rc = cli_main(["constants", "--formula", "c1-tilde", "--N", "2",
                   "--p", "2"])
    assert rc == 0
    assert capsys.readouterr().out == "0.7071067811865476\n"


def test_cli_constants_value_argmax_pairs(capsys):
    assert cli_main(["constants", "--formula", "c1-first", "--N", "2"]) == 0
    out = capsys.readouterr().out.split()
    assert float(out[0]) == pytest.approx(0.0669872981, rel=1e-8)
    assert float(out[1]) == pytest.approx(3.7320508, rel=1e-6)
    assert cli_main(["constants", "--formula", "c-gamma", "--N", "2",
                     "--gamma", "1.0"]) == 0
    out = capsys.readouterr().out.split()
    assert float(out[0]) == pytest.approx(0.2071067812, rel=1e-8)


def test_cli_c1_general_needs_no_p(capsys):
    assert cli_main(["constants", "--formula", "c1-general", "--N", "2",
                     "--s", "1", "--K1", "0.5", "--K2", "1"]) == 0
    value, argmax = (float(x) for x in capsys.readouterr().out.split())
    assert value > 0.0 and argmax > 1.0


def test_cli_constants_missing_argument(capsys):
    rc = cli_main(["constants", "--formula", "c-gamma", "--N", "2"])
    assert rc == 2
    assert "--gamma" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["c1-general", "--N", "2", "--s", "1", "--K1", "1", "--K2", "0.5"],
    ["c1-tilde", "--N", "1", "--p", "2"],
    ["c1-tilde", "--N", "2", "--p", "0.5"],
    ["c-gamma", "--N", "2", "--gamma", "0.5"],
    ["c1-first", "--N", "1"],
])
def test_cli_constants_out_of_range_is_a_config_error(argv, capsys):
    assert cli_main(["constants", "--formula"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ")


def test_cli_energy_and_optimize(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "dimension": 2, "s": 1.0, "p": 2.0, "field": "aniso",
        "quadrature": {"box_nodes": 32, "sphere_nodes": 32},
    }), encoding="utf-8")
    out_json = tmp_path / "energy.json"
    rc = cli_main(["energy", "--config", str(config), "--out", str(out_json)])
    assert rc == 0
    payload = json.loads(out_json.read_text(encoding="utf-8"))
    assert payload["field"] == "aniso"
    assert payload["affine_energy"] == pytest.approx(np.pi, rel=1e-4)
    assert payload["starred_seminorm"] > payload["affine_energy"]
    assert len(payload["profile"]["values"]) == 32

    trace_csv = tmp_path / "trace.csv"
    rc = cli_main(["optimize", "--config", str(config),
                   "--out", str(trace_csv)])
    assert rc == 0
    lines = trace_csv.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ("iteration,objective,grad_norm,step_size,"
                        "transform_hash")
    assert len(lines) > 2
    printed = capsys.readouterr().out
    assert "minimized value" in printed


_CI_PRECISION = [[1.2, -0.2, 0.1], [-0.2, 1.0, 0.1], [0.1, 0.1, 0.9]]


@pytest.mark.parametrize("raw", [
    {"dimension": 2, "s": 0.5, "p": 3.0, "field": "hermite",
     "quadrature": {"box_nodes": 36, "sphere_nodes": 32, "t_panels": 16}},
    {"dimension": 2, "s": 2.0, "p": 1.5, "field": "twobump",
     "quadrature": {"box_nodes": 32, "sphere_nodes": 32}},
    {"dimension": 3, "s": 1.0, "p": 3.0, "field": {"terms": [
        {"coefficient": -0.7, "mean": [0.2, 0.0, -0.1],
         "precision": _CI_PRECISION, "polynomial": {"0,0,0": 1.0}}]}},
], ids=["2d-fractional", "2d-integer", "3d"])
def test_energy_writer_matches_json_dumps(raw, tmp_path):
    from affsob.cli import _energy_payload, _json_text
    config = tmp_path / "run.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    payload = _energy_payload(parse_config(config))
    want = json.dumps(payload, indent=2, sort_keys=True)
    assert ("starred_seminorm" in payload) == (raw["s"] % 1 == 0)
    assert _json_text(payload) == want
    out = tmp_path / "energy.json"
    assert cli_main(["energy", "--config", str(config), "--out",
                     str(out)]) == 0
    assert out.read_bytes() == want.encode("utf-8")


def test_json_writer_falls_back_on_other_values():
    from affsob.cli import _json_text
    for value in [{"a": [1.0, float("inf")], "b": [], "c": {}},
                  {"z": [float("nan"), 2], "y": [True, None, "x\u00e9"]},
                  {"big": [1e308, 1e308], "rows": [[0.1, -2.5e-17], [3.0]]}]:
        assert _json_text(value) == json.dumps(value, indent=2,
                                               sort_keys=True)


def test_cli_missing_config_is_a_config_error(capsys):
    rc = cli_main(["energy", "--config", "/nonexistent/run.json"])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("quadrature", [
    {"box_nodes": 0}, {"box_nodes": -5}, {"box_nodes": 24.5},
    {"t_panels": -4}, {"sphere_nodes": 2}, {"box_nodes": True},
    {"t_panels": 0}, {"t_panels": 2.5}, {"sphere_nodes": 8.5},
])
def test_cli_bad_quadrature_value_is_a_config_error(tmp_path, capsys,
                                                    quadrature):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"field": "radial",
                                  "quadrature": quadrature}),
                      encoding="utf-8")
    rc = cli_main(["energy", "--config", str(config)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_cli_flat_inline_field_is_a_config_error(tmp_path, capsys):
    # constant along the second axis, so in no L^p: only positive definite
    # precisions are fields
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"s": 0.5, "p": 2, "field": {"terms": [{
        "coefficient": 1.0, "polynomial": {"0,0": 1.0}, "mean": [0, 0],
        "precision": [[1, 0], [0, 0]]}]}}), encoding="utf-8")
    assert cli_main(["energy", "--config", str(config)]) == 2
    assert "positive definite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["energy", "optimize"])
def test_cli_oversized_box_is_a_config_error(tmp_path, capsys, command):
    # 2000 base nodes would fit a 640^3 box (262M nodes, over 6 GB of
    # nodes) to this 3-D Gaussian; the config is refused from the node
    # counts alone, before anything is allocated
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "dimension": 3, "s": 1, "p": 2, "field": {"terms": [{
            "coefficient": 1.0, "polynomial": {"0,0,0": 1.0},
            "mean": [0, 0, 0], "precision": np.eye(3).tolist()}]},
        "quadrature": {"box_nodes": 2000}}), encoding="utf-8")
    start = time.perf_counter()
    assert cli_main([command, "--config", str(config)]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "640 x 640 x 640 = 262144000 nodes" in err
    assert "over the limit of 4000000" in err
    # the doubled 3-D tier of the CI run stays within the limit, and a 2-D
    # box, at most 640^2 nodes, always does
    raw = json.loads(config.read_text(encoding="utf-8"))
    raw["quadrature"]["box_nodes"] = 96
    assert config_from_dict(raw).quadrature.box_nodes == 96
    cfg = config_from_dict({"quadrature": {"box_nodes": 100000}})
    assert cfg.quadrature.box_nodes == 100000


def test_cli_optimize_on_a_coarse_fractional_bundle(tmp_path, capsys):
    # descent runs on one profile of aniso, so no trial composes a field
    # and even this coarse bundle finds the closed-form minimizer
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "dimension": 2, "s": 0.5, "p": 3.0, "field": "aniso",
        "quadrature": {"box_nodes": 24, "sphere_nodes": 16, "t_panels": 12},
        "optimizer": {"max_iters": 2},
    }), encoding="utf-8")
    rc = cli_main(["optimize", "--config", str(config),
                   "--out", str(tmp_path / "trace.csv")])
    assert rc == 0
    rows = capsys.readouterr().out.splitlines()[1:3]
    matrix = np.array([[float(x) for x in row.split()] for row in rows])
    np.testing.assert_allclose(matrix, np.diag([2.0 ** -0.5, 2.0 ** 0.5]),
                               atol=1e-2)


def test_cli_non_finite_field_is_a_numerical_failure(tmp_path, capsys):
    # two 1e308 terms overflow to inf where they overlap
    term = {"coefficient": 1e308, "polynomial": {"0,0": 1.0},
            "mean": [0.0, 0.0], "precision": [[1.0, 0.0], [0.0, 1.0]]}
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "dimension": 2, "s": 0.5, "p": 2.0, "field": {"terms": [term, term]},
        "quadrature": {"box_nodes": 24, "sphere_nodes": 16, "t_panels": 12},
    }), encoding="utf-8")
    rc = cli_main(["optimize", "--config", str(config)])
    assert rc == 3
    err = capsys.readouterr().err
    assert ("numerical failure: exact even-p energy: the scale of a product "
            "of terms overflows") in err


def _huge_terms(count: int) -> dict:
    term = {"coefficient": 1e200, "polynomial": {"0,0": 1.0},
            "mean": [0.0, 0.0], "precision": [[1.0, 0.0], [0.0, 1.0]]}
    return {"terms": [term] * count}


@pytest.mark.parametrize("command,s,p,terms,message", [
    ("energy", 0.5, 3.0, 1, "a single Gaussian's energy factor overflows"),
    ("energy", 1.0, 3.0, 1, "a single Gaussian's energy factor overflows"),
    ("energy", 2.0, 3.0, 1, "a single Gaussian's energy factor overflows"),
    ("optimize", 1.0, 3.0, 1, "a single Gaussian's polar weights overflow"),
    ("energy", 0.5, 2.0, 2, "exact even-p energy: the scale of a product"),
    ("energy", 0.5, 4.0, 2, "exact even-p energy: the scale of a product"),
])
def test_cli_overflowing_amplitude_is_a_numerical_failure(
        tmp_path, capsys, command, s, p, terms, message):
    # |c|^p = 1e600 leaves the double range: a single Gaussian's closed
    # forms and polar weights, and the exact engine's products, say so
    # instead of raising OverflowError
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "dimension": 2, "s": s, "p": p, "field": _huge_terms(terms),
        "quadrature": {"box_nodes": 24, "sphere_nodes": 16, "t_panels": 12},
    }), encoding="utf-8")
    assert cli_main([command, "--config", str(config)]) == 3
    assert f"numerical failure: {message}" in capsys.readouterr().err


def test_cli_sweep_failure_is_a_numerical_failure(monkeypatch, tmp_path,
                                                  capsys):
    # a failure inside the odd-p box sweep reaches the CLI unchanged
    def fail(*args):
        raise NumericalFailureError("sweep failed")

    monkeypatch.setattr(AnalyticField, "difference_lp_samples", fail)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "dimension": 2, "s": 0.5, "p": 3.0, "field": "twobump",
        "quadrature": {"box_nodes": 36, "sphere_nodes": 32, "t_panels": 16},
    }), encoding="utf-8")
    assert cli_main(["energy", "--config", str(config)]) == 3
    assert "numerical failure: sweep failed" in capsys.readouterr().err


def test_module_entry_point_runs_the_cli():
    src = Path(affsob.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run(
        [sys.executable, "-m", "affsob.cli", "constants", "--formula",
         "c1-first", "--N", "2"],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0
    # the package does not import affsob.cli, so runpy has nothing to warn of
    assert done.stderr == ""
    value, argmax = (float(x) for x in done.stdout.split())
    assert value == pytest.approx(0.0669872981, rel=1e-8)
    assert argmax == pytest.approx(3.7320508, rel=1e-6)


def test_cli_verify_optimizer_suite(tmp_path, capsys):
    rc = cli_main(["verify", "--suite", "optimizer", "--scale", "0.5",
                   "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert "optimizer:" in out
    csv_path = tmp_path / "optimizer.csv"
    assert csv_path.exists()
    assert rc in (0, 1)


def test_cli_rejects_unknown_suite():
    with pytest.raises(SystemExit):
        cli_main(["verify", "--suite", "imaginary"])


@pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf"])
def test_a_scale_that_is_not_finite_and_positive_exits_2(scale, tmp_path,
                                                         capsys):
    # refused while parsing, before any suite runs
    for argv in (["verify", "--suite", "core"],
                 ["report", "--out", str(tmp_path / "report")]):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(argv + [f"--scale={scale}"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be finite and positive" in captured.err
    assert not (tmp_path / "report").exists()
    with pytest.raises(ValueError, match="finite and positive"):
        run_suite("core", scale=float(scale))
