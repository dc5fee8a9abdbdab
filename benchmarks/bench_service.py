"""Cluster service: request batching cuts collective traffic.

Drains the same stream of small compatible jobs through a
:class:`~repro.service.Cluster` twice — once with batching disabled
(``batch_limit=1``) and once enabled — and compares the number of job-level
collective calls the machine actually executed.  The acceptance bar mirrors
the IR's ``batch_bcasts`` rewrite at the service layer: identical drained
results with *strictly fewer* collective calls and dispatch groups, and a
batched drain whose directives (one ``agree`` each) are fewer than its
groups.

Emits one machine-readable ``BENCH {...}`` JSON line with the full table.
"""

import json

import pytest

from repro.mpi import SUM
from repro.service import Cluster

from benchmarks.conftest import report

P = 4
JOBS = 24
JOB_OPS = ("bcast", "allreduce", "gather")

_ROWS: list[dict] = []


def _drain(batch_limit):
    with Cluster(P, hold_jobs=True, batch_limit=batch_limit,
                 trace=True) as cluster:
        handles = []
        for i in range(JOBS):
            if i % 2 == 0:
                handles.append(cluster.submit_bcast(i, label=f"b{i}"))
            else:
                handles.append(cluster.submit_allreduce(
                    range(i + 1), op=SUM, label=f"s{i}"))
        cluster.release_jobs()
        values = [h.result(60) for h in handles]
        calls = sum(1 for e in cluster.tracer.all_events()
                    if e.rank == 0 and e.op in JOB_OPS
                    and e.job is not None)
        return values, calls, dict(cluster.stats)


def _emit_summary():
    print("BENCH " + json.dumps({"bench": "service_batching", "rows": _ROWS}))
    lines = ["jobs  p   mode       directives  groups   "
             "job-level collective calls"]
    for row in _ROWS:
        lines.append(f"{row['jobs']:<5} {row['p']:<3} {row['mode']:<10} "
                     f"{row['directives']:<11} {row['groups']:<8} "
                     f"{row['calls']}")
    lines.append("")
    lines.append("(both drains bit-identical; batching strictly reduces "
                 "groups and collective calls; a directive carries every "
                 "queued group of its priority)")
    report("cluster service — request batching", "\n".join(lines))


def test_batching_strictly_reduces_collective_calls(benchmark):
    plain_values, plain_calls, plain_stats = _drain(batch_limit=1)

    def batched_run():
        return _drain(batch_limit=8)

    values, calls, stats = benchmark.pedantic(batched_run, rounds=1,
                                              iterations=1)
    assert values == plain_values, "batched drain must be bit-identical"
    assert stats["batched_groups"] >= 1
    assert stats["groups"] < plain_stats["groups"]
    assert stats["directives"] < stats["groups"], (
        "one directive must carry the held stream's groups")
    assert calls < plain_calls, (
        f"batching must strictly cut collective calls "
        f"({plain_calls} -> {calls})"
    )

    benchmark.extra_info["collective_calls"] = {
        "unbatched": plain_calls, "batched": calls}
    for mode, c, s in (("unbatched", plain_calls, plain_stats),
                       ("batched", calls, stats)):
        _ROWS.append({"jobs": JOBS, "p": P, "mode": mode,
                      "directives": s["directives"], "groups": s["groups"],
                      "calls": c})
    _emit_summary()
