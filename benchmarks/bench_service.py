"""Cluster service: request batching cuts collective traffic.

Drains the same stream of small compatible jobs through a
:class:`~repro.service.Cluster` twice — once with batching disabled
(``batch_limit=1``) and once enabled — and compares the number of job-level
collective calls the machine actually executed.  The acceptance bar mirrors
the IR's ``batch_bcasts`` rewrite at the service layer: identical drained
results with *strictly fewer* collective calls and groups, and a
batched drain whose directives (one ``agree`` each) are fewer than its
groups.

A long-stream row drains 5 000 jobs through a closed loop that keeps 16
outstanding and reports the memory the cluster still holds afterwards
(``tracemalloc``, after ``gc.collect()``), per 1 000 jobs: the directive log
keeps only what a live rank may still read, so that stays near zero.

Emits one machine-readable ``BENCH {...}`` JSON line with the full table.
"""

import gc
import json
import tracemalloc
from collections import deque

from repro.mpi import SUM
from repro.service import Cluster

from benchmarks.conftest import report

P = 4
JOBS = 24
JOB_OPS = ("bcast", "allreduce", "gather")

#: the long stream: jobs measured, jobs run first to warm the caches, jobs
#: kept outstanding, and the bound on what the measured ones may leave behind
STREAM_JOBS = 5000
WARM_JOBS = 1000
WINDOW = 16
RETAINED_KIB_PER_1000_JOBS = 64

_ROWS: list[dict] = []
_STREAM: dict = {}


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


def _closed_loop(cluster, jobs):
    """Alternate bcasts and 40-value allreduces, ``WINDOW`` outstanding."""
    window = deque()

    def settle():
        i, handle = window.popleft()
        assert handle.result(60) == (i if i % 2 == 0 else 780)

    for i in range(jobs):
        if len(window) == WINDOW:
            settle()
        window.append((i, cluster.submit_bcast(i) if i % 2 == 0
                       else cluster.submit_allreduce(range(40), op=SUM)))
    while window:
        settle()


def _emit_summary():
    if len(_ROWS) < 2 or not _STREAM:
        return                 # once, by whichever test finishes last
    print("BENCH " + json.dumps({"bench": "service_batching", "rows": _ROWS,
                                 "long_stream": _STREAM}))
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
    lines.append("")
    lines.append(f"long stream: {_STREAM['jobs']} jobs at p = {P}, "
                 f"{_STREAM['window']} outstanding: "
                 f"{_STREAM['retained_kib_per_1000_jobs']:.1f} KiB retained "
                 f"per 1 000 jobs (bound {RETAINED_KIB_PER_1000_JOBS})")
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


def test_a_long_stream_retains_bounded_memory(benchmark):
    def stream():
        tracemalloc.start()
        try:
            with Cluster(P) as cluster:
                _closed_loop(cluster, WARM_JOBS)
                gc.collect()
                before = tracemalloc.get_traced_memory()[0]
                _closed_loop(cluster, STREAM_JOBS)
                gc.collect()
                after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        return (after - before) / 1024 / (STREAM_JOBS / 1000)

    retained = benchmark.pedantic(stream, rounds=1, iterations=1)
    benchmark.extra_info["retained_kib_per_1000_jobs"] = retained
    _STREAM.update(jobs=STREAM_JOBS, p=P, window=WINDOW,
                   retained_kib_per_1000_jobs=round(retained, 2))
    _emit_summary()
    assert retained <= RETAINED_KIB_PER_1000_JOBS, (
        f"a drained stream left {retained:.0f} KiB per 1 000 jobs behind "
        f"(bound {RETAINED_KIB_PER_1000_JOBS} KiB)")
