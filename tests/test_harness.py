"""Run configuration, reporting surfaces, CLI exit codes, suite plumbing."""

import json

import numpy as np
import pytest

from affsob import (CheckResult, CheckSpec, ConfigError, VerificationReport,
                    cli_main, config_from_dict, merge_reports, parse_config,
                    write_plot_csv)
from affsob.config import (validate_balance, validate_not_excluded,
                           validate_subcritical)
from affsob.suites import _thread_count, run_suite, suite_names


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
    assert cfg.seed == 0
    cfg = config_from_dict({"field": "aniso", "s": 0.5, "seed": 3,
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
    validate_not_excluded(1.0, 1.0)
    validate_not_excluded(1.5, 1.0)
    with pytest.raises(ConfigError):
        validate_not_excluded(2.0, 1.0)


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
    clone = VerificationReport.from_json(report.to_json())
    assert clone.suite == "demo"
    assert [c.check_id for c in clone.checks] == ["one", "two"]
    assert clone.csv_text() == report.csv_text()
    merged = merge_reports("all", [report, clone])
    assert len(merged.checks) == 4


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


def test_thread_count_env(monkeypatch):
    monkeypatch.setenv("AFFSOB_THREADS", "3")
    assert _thread_count() == 3
    monkeypatch.setenv("AFFSOB_THREADS", "bogus")
    assert _thread_count() >= 1
    monkeypatch.setenv("AFFSOB_THREADS", "0")
    assert _thread_count() >= 1
    monkeypatch.delenv("AFFSOB_THREADS")
    assert _thread_count() >= 1


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


def test_cli_constants_missing_argument(capsys):
    rc = cli_main(["constants", "--formula", "c-gamma", "--N", "2"])
    assert rc == 2
    assert "--gamma" in capsys.readouterr().err


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


def test_cli_missing_config_is_a_config_error(capsys):
    rc = cli_main(["energy", "--config", "/nonexistent/run.json"])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_cli_invalid_descent_trial_is_a_numerical_failure(tmp_path, capsys):
    # the first Armijo trial from the identity stretches the precision of
    # aniso past numerical positive definiteness on this coarse bundle
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "dimension": 2, "s": 0.5, "p": 3.0, "field": "aniso",
        "quadrature": {"box_nodes": 24, "sphere_nodes": 16, "t_panels": 12},
        "optimizer": {"max_iters": 2},
    }), encoding="utf-8")
    rc = cli_main(["optimize", "--config", str(config),
                   "--out", str(tmp_path / "trace.csv")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "numerical failure: Armijo trial" in err
    assert "positive definite" in err


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
