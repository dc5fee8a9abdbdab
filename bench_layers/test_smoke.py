"""Smoke test of the benchmark command (``pytest bench_layers/``; not tier 1).

Runs every workload in ``--quick`` mode and checks the contract the driver
and later issues rely on: the last output line is the result object, every
metric named in ``BENCHMARK.json`` is there under a well-formed name, nothing
failed, and the counts marked exact repeat across two invocations.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: workloads whose traced run is also smoked (each repeats the layer suite)
TRACED = ("bind_p1", "coll_thread_p4")


def run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench_layers" / "run.py"), "--quick",
         "--workload", workload, "--seed", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def check(result: dict, wanted: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for spec in wanted:
        assert NAME.fullmatch(spec["name"]), spec["name"]
        metric = result["metrics"][spec["name"]]
        assert set(metric) == {"value", "unit"} and metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float))


def test_quick_run_reports_every_named_metric():
    started = time.perf_counter()
    for spec in SPEC["workloads"]:
        result = run(spec["name"], trace=0)
        check(result, SPEC["end_to_end"])
        assert all(m["value"] > 0 for m in result["metrics"].values())
    exact = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    counts = []
    for workload in TRACED:
        result = run(workload, trace=1)
        check(result, SPEC["per_layer"])
        counts.append({name: result["metrics"][name]["value"]
                       for name in exact if not name.startswith("trace.")})
    assert counts[0] == counts[1]  # the layer suite's counts repeat exactly
    assert time.perf_counter() - started < 30.0
