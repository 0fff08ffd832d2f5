"""Shared plumbing for the workloads: the metric catalogue, operation
accounting, robust statistics and memory readings.

The metric names, units and directions live in ``BENCHMARK.json`` at the
checkout root; :func:`metric_catalogue` reads them from there, so a workload
can never print a metric the benchmark does not declare, nor omit one.
"""

from __future__ import annotations

import json
import os
import pathlib
import statistics
from dataclasses import dataclass, field

ROOT = pathlib.Path(__file__).resolve().parent.parent


def metric_catalogue() -> tuple[dict[str, str], dict[str, str]]:
    """``(end_to_end, per_layer)``: metric name → unit, in declared order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


@dataclass
class Ledger:
    """Operations attempted and failed in one run, with every failed check
    named.  An operation fails when it raised or when any output check on
    it failed; a check that fails twice on one operation counts once."""

    attempted: int = 0
    failures: dict[str, list[str]] = field(default_factory=dict)

    def attempt(self, n: int = 1) -> None:
        self.attempted += n

    def check(self, ok: bool, op: str, check: str, detail: str = "") -> bool:
        if not ok:
            note = f"{check}: {detail}" if detail else check
            self.failures.setdefault(op, []).append(note)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)

    def report_lines(self) -> list[str]:
        return [
            f"FAILED {op}: {'; '.join(notes)}"
            for op, notes in sorted(self.failures.items())
        ]


def median(values) -> float:
    return float(statistics.median(values))


def nearest_rank(values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0–1) of a non-empty series."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return float(ordered[rank])


def close(a: float, b: float, tol: float = 1e-6) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set (``VmHWM``) of a process, in MB."""
    status = pathlib.Path(f"/proc/{pid or os.getpid()}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


def children_peak_rss_mb() -> float:
    """Summed peak resident sets of this process's live child processes
    (the executor's workers), read before they are shut down."""
    import multiprocessing

    total = 0.0
    for child in multiprocessing.active_children():
        try:
            total += peak_rss_mb(child.pid)
        except (OSError, RuntimeError):
            continue  # exited between listing and reading
    return total
