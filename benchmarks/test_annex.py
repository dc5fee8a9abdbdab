"""Smoke test of the annex workloads (``pytest benchmarks/test_annex.py``).

Runs every annex workload for ``--quick``'s 0.4 s, as ``run.py --out`` would,
and checks that the file has that shape: every end-to-end metric of
``BENCHMARK.json`` with its unit, nothing failed, and ``compare`` judging the
file against itself without a regression.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ANNEX = ROOT / "benchmarks" / "annex.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_every_annex_workload_runs_and_compares(tmp_path):
    out = tmp_path / "annex.json"
    done = subprocess.run(
        [sys.executable, str(ANNEX), "--quick", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    data = json.loads(out.read_text())
    assert data["quick"] is True
    runs = {run["workload"]: run for run in data["runs"]}
    assert set(runs) == {"floor_thread_p2", "floor_thread_p4",
                         "launch_mixed_p4"}
    for run in runs.values():
        assert run["failed"] == 0 and run["attempted"] > 0
        for spec in SPEC["end_to_end"]:
            metric = run["metrics"][spec["name"]]
            assert metric["unit"] == spec["unit"] and metric["value"] > 0
        assert run["absolute"]["raw_op_us"]["value"] > 0
    judged = subprocess.run(
        [sys.executable, str(ANNEX), "compare", str(out), str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert judged.returncode == 0, judged.stdout + judged.stderr
    for workload in runs:
        assert f"{workload:<20} wrapped_raw_ratio" in judged.stdout
