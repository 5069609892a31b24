#!/usr/bin/env python3
"""End-to-end benchmark of the affsob command surface.

    python3 perfbench/run.py --workload frac-energy --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  The workload's operations are
generated from the seed (see bench_workloads.py) and each one runs
in-process through `affsob.cli.cli_main`, one after another (a closed loop
with one client).  Every output is checked by an oracle independent of the
code under test.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured untraced.
With --trace 1 the untraced passes are followed by a traced pass and one
more untraced pass; the run reports the per-layer numbers of the traced
pass and its wall time minus that of the pass after it as the tracing
overhead, and requires every pass to produce byte-identical outputs.  A
line starting with "meta " before the result holds the run's metadata
and output digest; the full record (every operation with its latency and
digest, and for a traced run every span) is written under .perfbench_out/
in the checkout.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench_out"

# BLAS stays on one thread so a pass measures the library, not the BLAS
# scheduler; the suites' own thread pool gets at most two workers
_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
              "NUMEXPR_NUM_THREADS")
_AFFSOB_THREADS = min(2, os.cpu_count() or 1)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _pin_threads() -> None:
    for var in _BLAS_VARS:
        os.environ[var] = "1"
    os.environ["AFFSOB_THREADS"] = str(_AFFSOB_THREADS)


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "affsob" / "__init__.py").is_file():
        print(f"no affsob sources under {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    _pin_threads()
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import numpy  # noqa: F401  (timed as part of set-up)
    import affsob  # noqa: F401
    import_s = time.perf_counter() - t0

    from bench_runner import run_benchmark
    return run_benchmark(args.workload, args.seed, args.seconds,
                         bool(args.trace), import_s, ROOT, OUT_DIR)


if __name__ == "__main__":
    sys.exit(main())
