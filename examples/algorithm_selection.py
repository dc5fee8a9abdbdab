#!/usr/bin/env python
"""Collective algorithm selection: who picks a schedule, and why.

Every collective has several registered schedules, each with an α-β cost
formula.  A call takes the first of: a forced algorithm, the calling rank's
scoped rules (``Communicator.use_algorithms``), the communicator's tuning
table (``CollectiveEngine.tune``), the policy (``costmodel``: the argmin of
the formulas at the call's size; ``default``: the seed's table).
``CollectiveEngine.explain`` names the winner and the tier that chose it,
and the Chrome trace of a run shows each call's schedule on its rank's lane.

Run:  python examples/algorithm_selection.py
"""

import json
import os
import tempfile

import numpy as np

from repro.core import op, run, send_recv_buf
from repro.mpi import SUM, WORLD_ID, CollectiveEngine, CostModel

BIG = 1 << 16  # int64 elements: 512 KiB
SMALL = 8


def main(comm):
    big = np.arange(BIG, dtype=np.int64)
    small = np.arange(SMALL, dtype=np.int64)
    # rank-local, scoped: large allreduces via the chunked ring, everything
    # up to 4 KiB via recursive doubling (thresholds are inclusive)
    with comm.use_algorithms(allreduce=[(4096, "recursive_doubling"),
                                        (None, "ring")]):
        comm.allreduce(send_recv_buf(big), op(SUM))
        comm.allreduce(send_recv_buf(small), op(SUM))
    # no scope: the engine's table or policy decides
    comm.allreduce(send_recv_buf(big), op(SUM))
    comm.bcast(send_recv_buf(small))


def algorithms_run(res, collective):
    return [e.algorithm for e in res.trace.events_for(0)
            if e.op == collective]


if __name__ == "__main__":
    p = 8

    # the cost-model policy: the formulas' argmin at each call's size
    # (env={}: blind to REPRO_COLL_*, so a forced algorithm cannot win)
    engine = CollectiveEngine(CostModel(), policy="costmodel", env={})
    res = run(main, num_ranks=p, engine=engine, trace=True)
    ran = algorithms_run(res, "allreduce")
    print(f"costmodel policy, p={p}: allreduce ran {ran}")
    assert ran == ["ring", "recursive_doubling", "ring"], ran
    decision = engine.explain("allreduce", p=p, nbytes=BIG * 8)
    print(f"  {decision}")
    assert (decision.algorithm, decision.source) == ("ring", "costmodel")

    # a tuning table for the world communicator, installed before the run;
    # rules are canonicalized on install (sorted, the catch-all last)
    tuned = CollectiveEngine(CostModel(), env={})
    tuned.tune(WORLD_ID, "allreduce", rules=[(None, "reduce_bcast"),
                                             (1024, "recursive_doubling")])
    tuned.tune(WORLD_ID, "bcast", algorithm="linear")
    assert tuned.rules(WORLD_ID, "allreduce") == (
        (1024, "recursive_doubling"), (None, "reduce_bcast"))
    res = run(main, num_ranks=p, engine=tuned, trace=True)
    ran = algorithms_run(res, "allreduce")
    print(f"tuning table, p={p}: allreduce ran {ran}, "
          f"bcast ran {algorithms_run(res, 'bcast')}")
    assert ran == ["ring", "recursive_doubling", "reduce_bcast"], ran
    assert algorithms_run(res, "bcast") == ["linear"]
    decision = tuned.explain("allreduce", p=p, nbytes=BIG * 8)
    print(f"  {decision}")
    assert decision.source == "tuned"
    assert decision.rule == (None, "reduce_bcast")

    # the run as a Chrome trace (chrome://tracing, Perfetto): one lane per
    # rank on the virtual clock, each collective's algorithm in its args
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.json")
        res.trace.write_chrome_trace(path)
        with open(path, encoding="utf-8") as fh:
            written = json.load(fh)
    assert written == res.chrome_trace()  # the file holds the same events
    events = [e for e in written["traceEvents"] if e["ph"] == "X"]
    lanes = {e["tid"] for e in events}
    schedules = sorted({e["args"]["algorithm"] for e in events
                        if e["name"] == "allreduce"})
    received = [r["recvd"] for r in res.trace.per_rank_bytes()]
    print(f"chrome trace: {len(events)} events on {len(lanes)} lanes, "
          f"allreduce schedules {schedules}; bytes received per rank "
          f"{received}")
    assert lanes == set(range(p)) and min(received) > 0
    assert schedules == ["recursive_doubling", "reduce_bcast", "ring"]
    print("every call took the schedule its tier names ✓")
