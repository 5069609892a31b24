"""Fast checks of the benchmark's own logic (no workload is run)."""
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import bench_layers  # noqa: E402
from bench_oracles import difference_constant, gaussian_mixture_energy  # noqa: E402
from bench_runner import Operation, _check  # noqa: E402
from bench_stats import latency_summary, tail_rank  # noqa: E402
from bench_trace import Tracer, self_times  # noqa: E402


@pytest.mark.parametrize("n, expected", [
    (30, (100.0 * 20 / 30, 19, 10)),
    (20, (50.0, 9, 10)),
    (19, (50.0, 9, 9)),
    (4, (50.0, 2, 1)),
    (1, (50.0, 0, 0)),
])
def test_tail_rank_keeps_ten_operations_beyond(n, expected):
    percentile, rank, beyond = tail_rank(n)
    assert (rank, beyond) == expected[1:]
    assert percentile == pytest.approx(expected[0])
    assert n - 1 - rank == beyond


def test_failed_operations_count_as_infinitely_slow():
    latencies = [float(i) for i in range(1, 31)]
    failed = [False] * 30
    assert latency_summary(latencies, failed)["tail"] == 20.0
    failed[0] = True      # the fastest one fails
    summary = latency_summary(latencies, failed)
    assert summary["tail"] == 21.0
    assert summary["p50"] == 16.5
    assert math.isinf(latency_summary([1.0], [True])["p50"])


def test_self_time_subtracts_union_of_children():
    spans = [
        ["parent", 0.0, 10.0, None, "op", 1],
        ["child", 1.0, 3.0, 0, "op", 1],
        ["child", 2.0, 5.0, 0, "op", 2],     # overlaps: another thread
        ["child", 7.0, 8.0, 0, "op", 1],
        ["grandchild", 7.25, 7.75, 3, "op", 1],
    ]
    times = self_times(spans)
    assert times["parent"] == pytest.approx(10.0 - 4.0 - 1.0)
    assert times["child"] == pytest.approx(2.0 + 3.0 + 0.5)
    assert times["grandchild"] == pytest.approx(0.5)


def test_nested_spans_record_their_parent():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            assert tracer.current() == "inner"
    assert [s[3] for s in tracer.spans] == [None, 0]
    assert all(s[2] >= s[1] for s in tracer.spans)


class _FakeCli:
    def __init__(self, behaviour):
        self.behaviour = behaviour

    def cli_main(self, argv):
        if isinstance(self.behaviour, Exception):
            raise self.behaviour
        Path(argv[-1]).write_text("iteration,objective\n0,1.0\n")
        print("minimized value 1.0 (started 1.0) after 1 iterations: done")
        print("  1.0 0.0")
        print("  0.0 1.0")
        return self.behaviour


@pytest.mark.parametrize("behaviour, failure", [
    (ValueError("bad"), "ValueError"),
    (SystemExit(2), "exit:2"),
    (3, "exit:3"),
    (0, None),
])
def test_failures_are_counted_by_class_and_exit_code(tmp_path, behaviour,
                                                     failure):
    spec = {"id": "optimize/x", "kind": "optimize", "s": 1.0, "p": 2.0,
            "config": {}}
    op = Operation(spec, 0, tmp_path)
    record = op.run(_FakeCli(behaviour))
    _check(op, record)
    assert record["failure"] == failure


def test_wrong_output_fails_its_oracle(tmp_path):
    spec = {"id": "optimize/x", "kind": "optimize", "s": 1.0, "p": 2.0,
            "config": {}, "minimum": 2.0, "minimum_tol": 1e-3}
    op = Operation(spec, 0, tmp_path)
    record = op.run(_FakeCli(0))
    _check(op, record)
    assert record["failure"].startswith("oracle: minimum")


def test_closed_form_matches_known_values():
    assert difference_constant(0.5, 1) == pytest.approx(math.pi)
    assert difference_constant(1.5, 2) == pytest.approx(2.0 * math.pi / 3.0)
    # unit Gaussian in 2-D: int (d_1 f)^2 = int x^2 e^{-|x|^2} = pi / 2
    terms = [(1.0, np.zeros(2), np.eye(2))]
    value = gaussian_mixture_energy(terms, np.array([1.0, 0.0]), 1.0, False, 1)
    assert value == pytest.approx(math.pi / 2.0, rel=1e-13)


def test_wrappers_are_restored_after_tracing():
    import importlib
    modules = [importlib.import_module(name) for name in (
        "affsob", "affsob.affine_energy", "affsob.cli", "affsob.config",
        "affsob.fields", "affsob.quadrature", "affsob.seminorms",
        "affsob.sl_opt", "affsob.suites")]
    fields, quadrature = modules[4], modules[5]
    before = [dict(vars(m)) for m in modules]
    field_before = dict(vars(fields.AnalyticField))
    box_before = dict(vars(quadrature.BoxQuadrature))
    tracer = Tracer()
    bench_layers.install(tracer)
    assert tracer.patched > 20
    assert vars(modules[2])["cli_main"] is not before[2]["cli_main"]
    assert isinstance(vars(quadrature.BoxQuadrature)["fitted"], classmethod)
    tracer.restore()
    assert tracer.patched == 0
    for module, snapshot in zip(modules, before):
        assert all(vars(module)[k] is v for k, v in snapshot.items())
    assert all(vars(fields.AnalyticField)[k] is v
               for k, v in field_before.items())
    assert all(vars(quadrature.BoxQuadrature)[k] is v
               for k, v in box_before.items())
