"""Check results, suite reports, and deterministic CSV emission.

Floats are serialized with repr (shortest round-trip form) so identical
computations produce byte-identical files; wall-clock columns are left
empty unless timing is explicitly requested, for the same reason.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

CSV_HEADER = "suite,check_id,theorem,lhs,rhs,ratio,tolerance,pass,seconds"
PLOT_HEADER = "series,x,y"


@dataclass
class CheckResult:
    suite: str
    check_id: str
    theorem: str
    lhs: float
    rhs: float
    ratio: float
    tolerance: float
    passed: bool
    seconds: float | None = None
    note: str = ""

    def csv_row(self, include_seconds: bool = False) -> str:
        seconds = repr(self.seconds) if include_seconds and self.seconds is not None else ""
        return ",".join([
            self.suite, self.check_id, self.theorem,
            repr(float(self.lhs)), repr(float(self.rhs)),
            repr(float(self.ratio)), repr(float(self.tolerance)),
            "true" if self.passed else "false", seconds])


@dataclass
class VerificationReport:
    """A suite's check rows, and the (series, x, y) rows it feeds to plots,
    keyed by the stem of the plot file each list goes to."""

    suite: str
    checks: list = dataclass_field(default_factory=list)
    series: dict = dataclass_field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list:
        return [c for c in self.checks if not c.passed]

    def csv_text(self, include_seconds: bool = False) -> str:
        lines = [CSV_HEADER]
        lines += [c.csv_row(include_seconds) for c in self.checks]
        return "\n".join(lines) + "\n"

    def write_csv(self, path: str | Path, include_seconds: bool = False) -> None:
        Path(path).write_text(self.csv_text(include_seconds), encoding="utf-8")

    def summary(self) -> str:
        n_pass = sum(1 for c in self.checks if c.passed)
        verdict = "PASS" if self.passed else "FAIL"
        return f"{self.suite}: {n_pass}/{len(self.checks)} checks passed [{verdict}]"


def write_plot_csv(path: str | Path, rows: list[tuple[str, float, float]]) -> None:
    """Long-format series data: one (series, x, y) row per point."""
    lines = [PLOT_HEADER]
    lines += [f"{series},{x!r},{y!r}" for series, x, y in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


__all__ = ["CSV_HEADER", "PLOT_HEADER", "CheckResult", "VerificationReport",
           "write_plot_csv"]
