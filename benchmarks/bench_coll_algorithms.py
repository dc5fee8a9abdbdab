"""Collective algorithm crossovers: fixed schedules vs. the cost-model selector.

Sweeps the symmetric, size-hinted collectives (allgather, allreduce,
alltoallv) over payload size × communicator size, forcing each registered
algorithm in turn and then letting the ``costmodel`` policy pick per call.
The selector must at least match the best fixed algorithm on every cell —
that is the acceptance bar for the selection engine: the α-β formulas have
to *rank* the schedules correctly, not merely describe them.

Rooted collectives (bcast, scatter) resolve with ``nbytes = 0`` on purpose —
only the root knows the payload, and selection must be SPMD-consistent — so
they have no size crossover for the selector to exploit and are not swept
here; the per-communicator tuning table is their knob.

Emits one machine-readable ``BENCH {...}`` JSON line with the full crossover
table once the sweep completes.
"""

import json

import numpy as np
import pytest

from repro.mpi import CollectiveEngine, CostModel, SUM, algorithms, run_mpi

from benchmarks.conftest import report

CM = CostModel()
PS = (4, 8, 16)
WIDTHS = (16, 1024, 65536)  # int64 elements: 128 B, 8 KiB, 512 KiB
OPS = ("allgather", "allreduce", "alltoallv")
ITEM = 8

#: measured virtual seconds per (op, p, width) → {algorithm | "selector": t}
_CELLS: dict[tuple, dict[str, float]] = {}
_SELECTED: dict[tuple, str] = {}


def _workload(op, width):
    def main(comm):
        r = comm.rank
        arr = np.arange(width, dtype=np.int64) * (r + 3) + r
        if op == "allgather":
            comm.allgather(arr)
        elif op == "allreduce":
            comm.allreduce(arr, SUM)
        else:
            buf = np.concatenate(
                [np.full(width, r * comm.size + d, dtype=np.int64)
                 for d in range(comm.size)])
            comm.alltoallv(buf, [width] * comm.size, [width] * comm.size)
    return main


def _measure(op, p, width, engine):
    res = run_mpi(_workload(op, width), p, cost_model=CM, engine=engine,
                  trace=True, deadline=120.0)
    used = res.algorithms_used().get(op, ("?",))
    return res.max_time, used[0]


def _emit_summary():
    cells = []
    for (op, p, width), times in sorted(_CELLS.items()):
        fixed = {k: v for k, v in times.items() if k != "selector"}
        cells.append({
            "op": op, "p": p, "nbytes": width * ITEM,
            "virtual_seconds": times,
            "selected": _SELECTED[(op, p, width)],
            "winner": min(fixed, key=fixed.get),
        })
    print("BENCH " + json.dumps({"bench": "coll_algorithms", "cells": cells}))

    lines = []
    for op in OPS:
        lines.append(f"{op}: selected algorithm per (p × payload)")
        header = "    p \\ bytes" + "".join(f"{w * ITEM:>20}" for w in WIDTHS)
        lines.append(header)
        for p in PS:
            row = f"    {p:<9}"
            for w in WIDTHS:
                row += f"{_SELECTED[(op, p, w)]:>20}"
            lines.append(row)
    lines.append("")
    lines.append("(executing simulator, default α-β cost model; the "
                 "costmodel policy matched the best fixed schedule on "
                 "every cell)")
    report("collective algorithm crossovers — cost-model selection",
           "\n".join(lines))


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("p", PS)
@pytest.mark.parametrize("op", OPS)
def test_selector_matches_best_fixed_algorithm(benchmark, op, p, width):
    times: dict[str, float] = {}
    for algo in algorithms.algorithms(op):
        forced = CollectiveEngine(CM, overrides={op: algo.name}, env={})
        times[algo.name], _ = _measure(op, p, width, forced)

    def selector_run():
        engine = CollectiveEngine(CM, policy="costmodel", env={})
        return _measure(op, p, width, engine)

    sel_time, sel_name = benchmark.pedantic(selector_run, rounds=1,
                                            iterations=1)
    times["selector"] = sel_time
    benchmark.extra_info["virtual_seconds"] = sel_time
    benchmark.extra_info["selected"] = sel_name
    _CELLS[(op, p, width)] = times
    _SELECTED[(op, p, width)] = sel_name

    # The engine must never do worse than any single fixed algorithm (small
    # slack: two schedules within formula error may swap ranks).
    best = min(t for name, t in times.items() if name != "selector")
    assert sel_time <= best * 1.05, \
        f"{op} p={p} w={width}: selector {sel_name}={sel_time} vs best={best}"

    if len(_CELLS) == len(OPS) * len(PS) * len(WIDTHS):
        _emit_summary()


# -- autotuned policy (learned table) -----------------------------------------


def test_autotuned_policy_matches_best_fixed_on_grid(tmp_path):
    """A learned table must be at least as good as any fixed algorithm.

    Sweeps the full benchmark grid through :class:`AutoTuner`, installs the
    learned rules, and checks every cell: the autotuned engine's measured
    virtual time is ``<=`` the best fixed algorithm's — *exactly*, no slack,
    because the learned rules pick the measured winner and the simulator is
    deterministic.  Also round-trips the table through its JSON store and
    asserts a fresh engine reproduces the selections bit-identically."""
    from repro.mpi import AutoTuner
    from repro.mpi.autotune import _hint_bytes
    from repro.mpi.machine import WORLD_ID

    path = tmp_path / "learned.json"
    tuner = AutoTuner(path=path, cost_model=CM)
    tuner.sweep(ops=OPS, ps=PS, widths=WIDTHS)
    tuner.save()
    reloaded = AutoTuner.load(path)

    wins = ties = 0
    for p in PS:
        tuned = CollectiveEngine(CM, env={})
        fresh = CollectiveEngine(CM, env={})
        assert tuner.install(tuned, p=p) == len(OPS)
        assert reloaded.install(fresh, p=p) == len(OPS)
        for op in OPS:
            for width in WIDTHS:
                fixed = {}
                for algo in algorithms.algorithms(op):
                    forced = CollectiveEngine(CM, overrides={op: algo.name},
                                              env={})
                    fixed[algo.name], _ = _measure(op, p, width, forced)
                t_tuned, used = _measure(op, p, width, tuned)
                best = min(fixed.values())
                assert t_tuned <= best, (
                    f"{op} p={p} w={width}: autotuned {used}={t_tuned} "
                    f"worse than best fixed {best}")
                if t_tuned < best:
                    wins += 1
                else:
                    ties += 1
                nbytes = _hint_bytes(op, p, width)
                want = tuned.explain(op, p=p, nbytes=nbytes, comm_id=WORLD_ID)
                got = fresh.explain(op, p=p, nbytes=nbytes, comm_id=WORLD_ID)
                assert got == want and got.source == "learned"
        for op in OPS:
            assert fresh.rules(WORLD_ID, op) == tuned.rules(WORLD_ID, op)

    report("autotuned policy — learned table vs. best fixed schedule",
           f"{len(OPS) * len(PS) * len(WIDTHS)} grid cells: "
           f"{ties} exact ties with the best fixed algorithm, {wins} wins\n"
           f"(learned rules install the measured winner per size bucket; "
           f"reloaded table reproduced every selection bit-identically)")


# -- deterministic op/byte baseline (regression gate) ------------------------
#
# Virtual times above depend on the cost model's constants; the *traffic* of
# a fixed schedule does not — op and byte counts are exact simulator
# invariants.  ``collect_counts`` sweeps every registered algorithm over a
# reduced grid and the result is committed as ``BENCH_coll_algorithms.json``;
# ``benchmarks/check_baseline.py`` recomputes it in CI and fails on >25%
# regressions in either metric.

COUNT_PS = (4, 8)
COUNT_WIDTHS = (16, 1024)


def collect_counts():
    """Raw-op and sent-byte counts per ``(op, p, nbytes, algorithm)`` cell."""
    cells = []
    for op in OPS:
        for p in COUNT_PS:
            for width in COUNT_WIDTHS:
                for algo in algorithms.algorithms(op):
                    engine = CollectiveEngine(CM, overrides={op: algo.name},
                                              env={})
                    res = run_mpi(_workload(op, width), p, cost_model=CM,
                                  engine=engine, trace=True, deadline=120.0)
                    totals = res.op_bytes()
                    cells.append({
                        "op": op, "p": p, "nbytes": width * ITEM,
                        "algorithm": algo.name,
                        "raw_ops": int(sum(t["calls"]
                                           for t in totals.values())),
                        "sent_bytes": int(sum(t["sent"]
                                              for t in totals.values())),
                    })
    return cells


def main(argv=None):
    import argparse

    ap = argparse.ArgumentParser(
        description="write the deterministic op/byte baseline")
    ap.add_argument("--write-baseline", metavar="PATH",
                    help="write BENCH_coll_algorithms.json to PATH")
    ns = ap.parse_args(argv)
    payload = {"bench": "coll_algorithms",
               "metrics": ["raw_ops", "sent_bytes"],
               "cells": collect_counts()}
    text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    if ns.write_baseline:
        with open(ns.write_baseline, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {len(payload['cells'])} cells to {ns.write_baseline}")
    else:
        print(text, end="")


if __name__ == "__main__":
    main()
