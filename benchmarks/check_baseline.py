"""Benchmark baseline gate: traffic must not silently regress.

Recomputes the deterministic op/byte sweep of every registered collective
algorithm (``bench_coll_algorithms.collect_counts``) and compares it against
the committed ``BENCH_coll_algorithms.json``.  A cell whose raw-op count or
sent-byte total exceeds the committed value by more than 25% fails the gate;
a committed cell that no longer exists (an algorithm was dropped or renamed
without refreshing the baseline) fails too.  Improvements and new cells are
reported but never fail — refresh the baseline to lock them in:

    PYTHONPATH=src python -m benchmarks.bench_coll_algorithms \\
        --write-baseline BENCH_coll_algorithms.json

Also re-measures the process/thread backend wall-clock ratio
(``bench_overhead.backend_wall_ratio``) and compares it against the
``process_thread_ratio`` committed in ``BENCH_baseline.json`` (re-recorded
at PR 16, whose wait path made the thread side 1.7x faster: the median of 15
runs pinned to one CPU).  Wall clock is noisy — the same commit reads 7x to
11.5x run to run — so the tolerance is 2x: the
gate catches a process backend that got twice as slow to fork, frame or
pipe, not scheduling jitter.

Exit status: 0 clean, 1 regression.  Run from the repository root.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from benchmarks.bench_coll_algorithms import collect_counts
from benchmarks.bench_overhead import backend_wall_ratio

_ROOT = Path(__file__).resolve().parent.parent
BASELINE = _ROOT / "BENCH_coll_algorithms.json"
WALL_BASELINE = _ROOT / "BENCH_baseline.json"
TOLERANCE = 1.25  # >25% worse on either metric is a regression
WALL_RATIO_TOLERANCE = 2.0  # wall clock: a factor of two fails, jitter does not
METRICS = ("raw_ops", "sent_bytes")


def _key(cell: dict) -> tuple:
    return (cell["op"], cell["p"], cell["nbytes"], cell["algorithm"])


def _committed_wall_ratio() -> float | None:
    """The process/thread ratio locked into BENCH_baseline.json, if any."""
    if not WALL_BASELINE.exists():
        return None
    for bench in json.loads(WALL_BASELINE.read_text()).get("benchmarks", []):
        ratio = bench.get("extra_info", {}).get("process_thread_ratio")
        if ratio is not None:
            return float(ratio)
    return None


def check_backend_ratio(failures: list[str], notes: list[str]) -> None:
    committed = _committed_wall_ratio()
    if committed is None:
        notes.append("backend wall ratio: no process_thread_ratio in "
                     f"{WALL_BASELINE.name}; skipping gate")
        return
    rows = backend_wall_ratio()
    print(f"backend wall ratio: process/thread {rows['ratio']:.2f}x "
          f"(committed {committed:.2f}x, tolerance {WALL_RATIO_TOLERANCE}x)")
    if rows["ratio"] > committed * WALL_RATIO_TOLERANCE:
        failures.append(
            f"backend wall ratio regressed: {rows['ratio']:.2f}x vs "
            f"committed {committed:.2f}x (> {WALL_RATIO_TOLERANCE}x slack; "
            f"thread {rows['thread'] * 1e3:.1f} ms, "
            f"process {rows['process'] * 1e3:.1f} ms)")


def main() -> int:
    committed = {_key(c): c
                 for c in json.loads(BASELINE.read_text())["cells"]}
    current = {_key(c): c for c in collect_counts()}

    failures: list[str] = []
    notes: list[str] = []
    check_backend_ratio(failures, notes)
    for key, old in sorted(committed.items()):
        new = current.get(key)
        if new is None:
            failures.append(f"{key}: cell vanished from the sweep "
                            f"(baseline not refreshed?)")
            continue
        for metric in METRICS:
            if new[metric] > old[metric] * TOLERANCE:
                failures.append(
                    f"{key}: {metric} regressed {old[metric]} -> "
                    f"{new[metric]} (> {TOLERANCE:.2f}x)")
            elif new[metric] < old[metric]:
                notes.append(f"{key}: {metric} improved {old[metric]} -> "
                             f"{new[metric]}")
    for key in sorted(set(current) - set(committed)):
        notes.append(f"{key}: new cell (not in baseline)")

    for line in notes:
        print(f"note: {line}")
    for line in failures:
        print(f"FAIL: {line}", file=sys.stderr)
    print(f"checked {len(committed)} committed cells against "
          f"{len(current)} current: {len(failures)} regression(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
