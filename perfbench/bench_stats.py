"""Latency summaries used by the benchmark."""
from __future__ import annotations

import math
import statistics

# a tail percentile is only reported when this many operations lie beyond it
TAIL_BEYOND = 10


def tail_rank(n: int) -> tuple[float, int, int]:
    """(percentile, rank, beyond) for n operations.

    The tail is the highest percentile with at least TAIL_BEYOND operations
    beyond it: the (n - 10)-th smallest latency, at percentile
    100 (n - 10) / n.  Below 2 * TAIL_BEYOND operations that percentile
    would fall under the median, so the upper median stands in for it
    and `beyond` says how many operations lie above it.
    """
    if n < 1:
        raise ValueError("need at least one operation")
    if n >= 2 * TAIL_BEYOND:
        return 100.0 * (n - TAIL_BEYOND) / n, n - TAIL_BEYOND - 1, TAIL_BEYOND
    return 50.0, n // 2, n - 1 - n // 2


def latency_summary(latencies: list[float], failed: list[bool]) -> dict:
    """Median and tail latency; a failed operation counts as infinitely slow."""
    values = sorted(math.inf if bad else t
                    for t, bad in zip(latencies, failed))
    percentile, rank, beyond = tail_rank(len(values))
    return {"count": len(values), "p50": statistics.median(values),
            "tail": values[rank], "tail_percentile": percentile,
            "tail_beyond": beyond}
