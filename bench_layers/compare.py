"""Compare two result files of ``run.py --out``: ``compare.py A.json B.json``.

One row per (workload, end-to-end metric) with both sides' median and
quartiles over their runs (``--repeats``), judged by the bounds in
``BENCHMARK.json``: B is a *regression* when its median is worse than A's by
more than the bound.  A pair whose run-to-run spread (quartile distance over
median, either side) exceeds the bound is *unresolved* — not "unchanged" —
unless every run of B reads better than every run of A.  Operations that
failed count as a regression whenever B fails more of them than A.  Per-layer
counts are listed when they differ; they are exact for a given seed (only
``apps.graphs.bfs_levels`` depends on it), so at equal seeds any difference
is a change of behaviour, not noise.  Exits non-zero on a regression.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench_layers import ROOT
from bench_layers.harness import quartiles

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@dataclass
class Row:
    workload: str
    metric: str
    unit: str
    a: tuple[float, float, float]  # q1, median, q3 over A's runs
    b: tuple[float, float, float]
    n: tuple[int, int]
    worse_by: float  # share of A's median; positive is worse
    bound: Optional[float]  # None: an absolute figure, never judged
    verdict: str  # ok | improved | regression | unresolved | -


def load(path) -> tuple[dict, dict, dict]:
    """``(values, failures, stamp)``: every run's value per (workload, metric),
    ``[failed, attempted]`` per workload, and where and with which seed the
    file was taken."""
    data = json.loads(Path(path).read_text())
    values: dict = defaultdict(list)
    failures: dict = defaultdict(lambda: [0, 0])
    for run in data["runs"]:
        for name, metric in {**run["metrics"], **run.get("absolute", {})}.items():
            values[run["workload"], name].append(metric["value"])
        failures[run["workload"]][0] += run["failed"]
        failures[run["workload"]][1] += run["attempted"]
    stamp = {**data.get("stamp", {}), "seed": data.get("seed")}
    return dict(values), dict(failures), stamp


def spread(q: tuple[float, float, float]) -> float:
    return (q[2] - q[0]) / abs(q[1]) if q[1] else 0.0


def judge(a: list[float], b: list[float], better: str,
          bound: Optional[float]) -> tuple[float, str]:
    qa, qb = quartiles(a), quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
    if bound is None:
        return worse_by, "-"
    if max(spread(qa), spread(qb)) > bound:
        all_better = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
        return worse_by, "improved" if all_better else "unresolved"
    if worse_by > bound:
        return worse_by, "regression"
    return worse_by, "improved" if worse_by < -bound else "ok"


def rows(a_values: dict, b_values: dict, metrics=None) -> list[Row]:
    out = []
    for spec in metrics if metrics is not None else SPEC["end_to_end"]:
        for workload in (w["name"] for w in SPEC["workloads"]):
            key = (workload, spec["name"])
            if key not in a_values or key not in b_values:
                continue
            a, b = a_values[key], b_values[key]
            bound = spec.get("bound")
            worse_by, verdict = judge(a, b, spec["better"], bound)
            out.append(Row(workload, spec["name"], spec["unit"], quartiles(a),
                           quartiles(b), (len(a), len(b)), worse_by, bound,
                           verdict))
    return out


def changed_counts(a_values: dict, b_values: dict) -> list[tuple]:
    """Exact per-layer counts whose value differs between the two files."""
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    out = []
    for (workload, name), a in sorted(a_values.items()):
        b = b_values.get((workload, name))
        if name in counts and b is not None and set(a) != set(b):
            out.append((workload, name, sorted(set(a)), sorted(set(b))))
    return out


def more_failures(a_fail: dict, b_fail: dict) -> list[tuple]:
    out = []
    for workload, (failed, attempted) in sorted(b_fail.items()):
        before = a_fail.get(workload, [0, 1])
        if failed / attempted > before[0] / before[1]:
            out.append((workload, before[0] / before[1], failed / attempted))
    return out


#: wall-clock figures of a run, printed for information and never judged
ABSOLUTE = (
    {"name": "op_us", "unit": "us", "better": "lower"},
    {"name": "raw_op_us", "unit": "us", "better": "lower"},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher"},
    {"name": "stall_ratio", "unit": "ratio", "better": "lower"},
    {"name": "ref_unit_us", "unit": "us", "better": "lower"})


def print_rows(table: list[Row]) -> None:
    print(f"{'workload':<20} {'metric':<18} {'unit':<6} "
          f"{'A median [q1, q3] n':<38} {'B median [q1, q3] n':<38} "
          f"{'worse by':>9} {'bound':>6}  verdict")
    for r in table:
        a = f"{r.a[1]:.6g} [{r.a[0]:.6g}, {r.a[2]:.6g}] n={r.n[0]}"
        b = f"{r.b[1]:.6g} [{r.b[0]:.6g}, {r.b[2]:.6g}] n={r.n[1]}"
        bound = "-" if r.bound is None else f"{r.bound:.0%}"
        print(f"{r.workload:<20} {r.metric:<18} {r.unit:<6} {a:<38} {b:<38} "
              f"{r.worse_by:>+9.1%} {bound:>6}  {r.verdict}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", metavar="A.json", help="the parent's results")
    ap.add_argument("b", metavar="B.json", help="the change's results")
    args = ap.parse_args(argv)
    a_values, a_fail, a_stamp = load(args.a)
    b_values, b_fail, b_stamp = load(args.b)
    print(f"A: {args.a}  {a_stamp}")
    print(f"B: {args.b}  {b_stamp}")
    table = rows(a_values, b_values)
    print_rows(table)
    print("absolute (moves with the machine; not judged):")
    print_rows(rows(a_values, b_values, ABSOLUTE))
    for workload, name, a, b in changed_counts(a_values, b_values):
        print(f"count changed: {workload} {name}: {a} -> {b}")
    failures = more_failures(a_fail, b_fail)
    for workload, before, after in failures:
        print(f"fail_rate rose: {workload}: {before:.3g} -> {after:.3g}")
    tally = defaultdict(int)
    for r in table:
        tally[r.verdict] += 1
    print(", ".join(f"{n} {verdict}" for verdict, n in sorted(tally.items())))
    return 1 if tally["regression"] or failures else 0


if __name__ == "__main__":
    sys.exit(main())
