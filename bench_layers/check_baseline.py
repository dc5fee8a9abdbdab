"""Gate a result file against the committed ``baseline.json``.

    python3 bench_layers/run.py --trace --repeats 3 --out results.json
    python3 bench_layers/check_baseline.py results.json [--record "PR 13"]

What travels between machines is gated: every workload's
``wrapped_raw_ratio`` (by its bound in ``BENCHMARK.json``), the exact
per-layer counts, and operations that failed.  Absolute times, rates and
memory are printed for information only — the baseline was taken on another
day and perhaps another machine.  ``--record LABEL`` appends this result's
row to ``TRAJECTORY.md`` so the trajectory across PRs stays readable.
(The older ``benchmarks/check_baseline.py`` gates traffic counts and the
process/thread ratio; it does not call this file.)
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench_layers import compare
from bench_layers.harness import quartiles

HERE = Path(__file__).resolve().parent
BASELINE = HERE / "baseline.json"
TRAJECTORY = HERE / "TRAJECTORY.md"
GATED = ("wrapped_raw_ratio",)


def trajectory_row(label: str, values: dict, stamp: dict) -> str:
    cells = [label, stamp.get("date", "?")[:10]]
    for workload in (w["name"] for w in compare.SPEC["workloads"]):
        op = quartiles(values[workload, "op_us"])[1]
        ratio = quartiles(values[workload, "wrapped_raw_ratio"])[1]
        cells.append(f"{op:.1f} / {ratio:.2f}")
    return "| " + " | ".join(cells) + " |\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("results", help="a file written by run.py --out")
    ap.add_argument("--record", metavar="LABEL",
                    help="append this result to TRAJECTORY.md under LABEL")
    args = ap.parse_args(argv)
    base_values, base_fail, base_stamp = compare.load(BASELINE)
    values, fail, stamp = compare.load(args.results)
    print(f"baseline: {base_stamp}\nresults:  {stamp}")
    if stamp["seed"] != base_stamp["seed"]:
        raise SystemExit(f"the baseline was taken with --seed "
                         f"{base_stamp['seed']}; exact counts only compare "
                         f"at equal seeds")
    table = compare.rows(base_values, values)
    compare.print_rows(table)
    problems = [f"{r.workload} {r.metric} worse by {r.worse_by:+.1%}"
                for r in table
                if r.metric in GATED and r.verdict == "regression"]
    problems += [f"{w} {name}: count {a} -> {b}"
                 for w, name, a, b in compare.changed_counts(base_values, values)]
    problems += [f"{w}: fail_rate {before:.3g} -> {after:.3g}"
                 for w, before, after in compare.more_failures(base_fail, fail)]
    for problem in problems:
        print(f"GATE: {problem}")
    print("baseline gate: " + ("FAILED" if problems else "ok")
          + "  (ratios, exact counts and failures gate; times inform)")
    if args.record:
        with open(TRAJECTORY, "a", encoding="utf-8") as fh:
            fh.write(trajectory_row(args.record, values, stamp))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
