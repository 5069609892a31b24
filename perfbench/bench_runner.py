"""Set-up, timed passes, oracle checks and the result record."""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import bench_layers
from bench_oracles import CHECKS
from bench_stats import latency_summary
from bench_trace import Tracer
from bench_workloads import BASE, DOUBLED, build_operations

# one pass over a workload's list takes about this long on a 2-vCPU x86-64
# VM; --seconds buys round(seconds / nominal) passes, at least one, so the
# operation count of a run depends on --seconds alone, never on timing
NOMINAL_PASS_S = {"frac-energy": 26.0, "frac-optimize": 21.0,
                  "integer": 8.5}
# set-up is repeated and its median reported
SETUP_REPEATS = 3
# a failing median or tail is reported as this many seconds
_FAILED_LATENCY_S = 1e9


class Operation:
    """One CLI invocation with its files in the run's scratch directory."""

    def __init__(self, spec: dict, index: int, scratch: Path):
        self.spec = spec
        self.id = spec["id"]
        self.kind = spec["kind"]
        stem = scratch / f"op{index:03d}"
        if self.kind == "verify":
            self.out = stem
            self.out_file = stem / f"{spec['suite']}.csv"
            self.argv = ["verify", "--suite", spec["suite"], "--out",
                         str(stem)]
        else:
            config = stem.with_suffix(".json")
            config.write_text(json.dumps(spec["config"], sort_keys=True),
                              encoding="utf-8")
            self.out = self.out_file = stem.with_suffix(".out")
            self.argv = [self.kind, "--config", str(config), "--out",
                         str(self.out)]

    def run(self, cli) -> dict:
        """Call the CLI once; never raises."""
        if self.out.is_dir():
            shutil.rmtree(self.out)
        elif self.out.exists():
            self.out.unlink()
        stdout, stderr = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                code = cli.cli_main(self.argv)
            outcome = "ok" if code == 0 else f"exit:{code}"
        except SystemExit as exc:
            outcome = f"exit:{exc.code}"
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            outcome = type(exc).__name__
            stderr.write(traceback.format_exc())
        latency = time.perf_counter() - start
        out_text = self.out_file.read_text(encoding="utf-8") \
            if self.out_file.is_file() else ""
        return {"id": self.id, "outcome": outcome, "latency_s": latency,
                "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
                "out_text": out_text}


def _digest(record: dict) -> str:
    text = "\n".join([record["id"], record["outcome"], record["stdout"],
                      record["out_text"]])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _check(op: Operation, record: dict) -> None:
    """Run the oracle and fill in record["failure"] (None, the outcome of a
    failed call, or "oracle: <reason>") and the output digest."""
    record["digest"] = _digest(record)
    if record["outcome"] != "ok":
        record["failure"] = record["outcome"]
        return
    try:
        reason = CHECKS[op.kind](op.spec, record["stdout"], record["out_text"])
    except Exception as exc:  # noqa: BLE001 - unreadable output fails too
        reason = f"unreadable output: {type(exc).__name__}: {exc}"
    record["failure"] = None if reason is None else f"oracle: {reason}"


def _failure_class(failure: str) -> str:
    return "oracle" if failure.startswith("oracle:") else failure


def _pass(ops, cli, tracer=None) -> tuple[list[dict], float, float]:
    """Run every operation once: (records, wall seconds, CPU seconds)."""
    cpu0, wall0 = time.process_time(), time.perf_counter()
    records = []
    for op in ops:
        if tracer is not None:
            tracer.op = op.id
        records.append(op.run(cli))
    return records, time.perf_counter() - wall0, time.process_time() - cpu0


def _set_up(workload: str, seed: int, scratch: Path, cli):
    """Family, quadrature bundles, generated inputs and a warm-up call."""
    from affsob import QuadratureBundle, RadialSpec, standard_family
    standard_family()
    for tier in (BASE, DOUBLED):
        QuadratureBundle.default(2, box_nodes=tier["box_nodes"],
                                 sphere_resolution=tier["sphere_nodes"],
                                 radial_spec=RadialSpec(panels=tier["t_panels"]))
    QuadratureBundle.default(2)
    QuadratureBundle.default(3)
    specs = build_operations(workload, seed)
    ops = [Operation(spec, i, scratch) for i, spec in enumerate(specs)]
    warm = Operation({"id": "warm-up", "kind": "energy",
                      "config": {"dimension": 2, "s": 1.0, "p": 2.0,
                                 "field": "radial",
                                 "quadrature": {"box_nodes": 16,
                                                "sphere_nodes": 8}}},
                     len(specs), scratch)
    if warm.run(cli)["outcome"] != "ok":
        raise RuntimeError("warm-up operation failed")
    return ops


def _git_sha(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _metadata(workload, seed, seconds, passes, n_ops, summary, root) -> dict:
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "passes": passes, "operations_per_pass": n_ops,
        "git_sha": _git_sha(root), "source_sha256": _source_digest(root),
        "nproc": os.cpu_count(),
        "AFFSOB_THREADS": os.environ.get("AFFSOB_THREADS"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(), "numpy": np.__version__,
        "platform": platform.platform(), "machine": platform.machine(),
        "operation_count": summary["count"],
        "tail_percentile": summary["tail_percentile"],
        "tail_beyond": summary["tail_beyond"],
        "loop": "closed, one client",
    }


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _finite(x: float) -> float:
    return x if np.isfinite(x) else _FAILED_LATENCY_S


def run_benchmark(workload: str, seed: int, seconds: float, traced: bool,
                  import_s: float, root: Path, out_dir: Path) -> int:
    from affsob import cli
    if workload not in NOMINAL_PASS_S:
        print(f"unknown workload {workload!r}; choose from "
              f"{', '.join(NOMINAL_PASS_S)}", file=sys.stderr)
        return 2
    out_dir.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=out_dir))
    try:
        return _run(workload, seed, seconds, traced, import_s, root, out_dir,
                    scratch, cli)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(workload, seed, seconds, traced, import_s, root, out_dir, scratch,
         cli) -> int:
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ops = _set_up(workload, seed, scratch, cli)
        setups.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setups)

    passes = max(1, round(seconds / NOMINAL_PASS_S[workload]))
    measured = [op for op in ops if "known_failure" not in op.spec]
    probes = [op for op in ops if "known_failure" in op.spec]

    timed = [_pass(measured, cli) for _ in range(passes)]
    records = [recs for recs, _, _ in timed]
    walls = [wall for _, wall, _ in timed]
    tracer = None
    if traced:
        # traced pass, then one more untraced pass right after it: both run
        # with the allocator and caches warmed by the passes before them
        tracer = Tracer()
        bench_layers.install(tracer)
        try:
            traced_records, traced_wall, _ = _pass(measured, cli, tracer)
        finally:
            tracer.restore()
        after, wall, cpu = _pass(measured, cli)
        records += [traced_records, after]
    probe_records = [op.run(cli) for op in probes]

    # oracles run after timing, on every pass
    for recs in records:
        for op, rec in zip(measured, recs):
            _check(op, rec)
    for op, rec in zip(probes, probe_records):
        _check(op, rec)

    reported = [rec for recs in records[:passes] for rec in recs]
    failed_flags = [rec["failure"] is not None for rec in reported]
    summary = latency_summary([rec["latency_s"] for rec in reported],
                              failed_flags)
    n_failed = sum(failed_flags)
    digests = [hashlib.sha256("".join(r["digest"] for r in recs).encode())
               .hexdigest() for recs in records]
    failures_by_class: dict[str, int] = {}
    for rec in [r for recs in records for r in recs] + probe_records:
        if rec["failure"] is not None:
            key = _failure_class(rec["failure"])
            failures_by_class[key] = failures_by_class.get(key, 0) + 1
    # every pass must give the same outputs and pass its oracles; a probe
    # of a known defect may fail, but may not return a wrong answer
    correct = (len(set(digests)) == 1
               and all(rec["failure"] is None for recs in records
                       for rec in recs)
               and not any(rec["failure"] and
                           _failure_class(rec["failure"]) == "oracle"
                           for rec in probe_records))

    meta = _metadata(workload, seed, seconds, passes, len(measured), summary,
                     root)
    meta.update({
        "digest": digests[0], "pass_digests": digests,
        "failures_by_class": failures_by_class,
        "known_failure_probes": [
            {"id": op.id, "expected": op.spec["known_failure"],
             "outcome": rec["outcome"], "failure": rec["failure"],
             "latency_s": rec["latency_s"]}
            for op, rec in zip(probes, probe_records)],
        "setup_runs_s": setups, "import_s": import_s,
        "pass_wall_s": walls, "pass_cpu_s": [cpu for _, _, cpu in timed]})

    if traced:
        layer = bench_layers.layer_metrics(tracer)
        layer["process.wall_s"] = wall
        layer["process.cpu_s"] = cpu
        layer["trace.overhead_s"] = traced_wall - wall
        metrics = {name: {"value": layer[name], "unit": unit}
                   for unit, name in bench_layers.PER_LAYER}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "op_p50_s": {"value": _finite(summary["p50"]), "unit": "s"},
            "op_tail_s": {"value": _finite(summary["tail"]), "unit": "s"},
            "ok_ratio": {"value": 1.0 - n_failed / len(reported),
                         "unit": "ratio"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
        }

    _write_record(out_dir, f"{workload}-seed{seed}-trace{int(traced)}", meta,
                  metrics, records, probe_records, tracer)
    for rec in records[0]:
        print(f"op {rec['id']} {rec['outcome']} {rec['latency_s']:.6f}s "
              f"digest {rec['digest'][:16]}"
              + (f" FAIL {rec['failure']}" if rec["failure"] else ""))
    for op, rec in zip(probes, probe_records):
        print(f"probe {op.id} {rec['outcome']} "
              f"(known: {op.spec['known_failure']})")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({"correct": bool(correct), "attempted": len(reported),
                      "failed": n_failed, "metrics": metrics}))
    return 0


def _write_record(out_dir, tag, meta, metrics, records, probe_records,
                  tracer) -> None:
    """Full record of the run, and the spans of a traced pass."""
    def brief(rec):
        return {k: v for k, v in rec.items() if k not in ("stdout", "out_text")}
    record = {"meta": meta, "metrics": metrics,
              "passes": [[brief(r) for r in recs] for recs in records],
              "probes": [brief(r) for r in probe_records]}
    (out_dir / f"run-{tag}.json").write_text(json.dumps(record, indent=1),
                                             encoding="utf-8")
    if tracer is not None:
        with open(out_dir / f"spans-{tag}.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
