"""Everything observable about the raw calls, as diffable text.

One program calls all 17 blocking collectives and the three ``i*`` ones; it
runs traced and under ``ir="record"`` at p ∈ {1, 2, 3, 4, 7} with root ∈
{0, p−1}.  A second calls every declared point-to-point and management call
(wildcard receives, ``isend``/``irecv`` waits, ``sendrecv``, ``ssend``/
``issend``, the probes, ``dup``, ``split`` and a dist-graph communicator) at
the same p, under ``ir="record"`` and — without the probes, which the IR
refuses — under ``ir="optimize"``, whose rewritten nodes and replay are
printed too.  Every per-rank value, virtual clock, PMPI count, trace event
and journalled IR node is printed one per line.  A refactor of the raw layer
is behaviour-preserving when the output of two commits is identical::

    PYTHONPATH=src python benchmarks/raw_collectives_fingerprint.py > change.txt
    (cd <parent checkout> && PYTHONPATH=src python \\
        <this file> > parent.txt) && diff parent.txt change.txt

The engine is built with ``env={}``, so ``REPRO_COLL_*`` cannot leak in.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.mpi import SUM, CollectiveEngine, CostModel, Op, run_mpi

PS = (1, 2, 3, 4, 7)


def program(raw, root):
    p, r = raw.size, raw.rank
    at_root = r == root
    out = {}
    raw.barrier()
    out["bcast"] = raw.bcast(np.arange(3) + root if at_root else None, root)
    out["gather"] = raw.gather((r, "x" * r), root)
    # the count vector is a collective's result on every rank, so the
    # recorder must journal a dependency on it wherever it is passed
    counts = raw.bcast([i + 1 for i in range(p)] if at_root else None, root)
    out["gatherv"] = raw.gatherv(np.full(r + 1, r, dtype=np.int64),
                                 counts if at_root else None, root)
    out["scatter"] = raw.scatter(
        [np.full(2, i + root) for i in range(p)] if at_root else None, root)
    out["scatterv"] = raw.scatterv(
        np.arange(sum(counts), dtype=np.int64) if at_root else None,
        counts if at_root else None, root)
    out["allgather"] = raw.allgather(np.full(2, r, dtype=np.int32))
    out["allgatherv"] = raw.allgatherv(np.full(r + 1, r, dtype=np.int64),
                                       counts)
    out["alltoall"] = raw.alltoall([r * 10 + d for d in range(p)])
    sendcounts = [(r + d) % 3 for d in range(p)]
    recvcounts = raw.alltoall(sendcounts)
    out["alltoallv"] = raw.alltoallv(
        np.arange(sum(sendcounts), dtype=np.int64) + 100 * r, sendcounts,
        recvcounts)
    out["alltoallw"] = raw.alltoallw(
        [np.full(d % 2 + 1, r, dtype=np.int64) for d in range(p)])
    out["reduce"] = raw.reduce(np.arange(4.0) * (r + 1), SUM, root)
    out["allreduce"] = raw.allreduce(r + 1, SUM)
    out["scan"] = raw.scan(np.full(2, r + 1), SUM)
    out["exscan"] = raw.exscan(r + 1, SUM)
    # a non-root passes a placeholder to ibcast, as a C program would
    req = raw.ibcast(np.arange(5) if at_root else np.zeros(5, dtype=int), root)
    raw.compute(1e-6)
    out["ibcast"] = req.wait()
    out["iallreduce"] = raw.iallreduce(np.full(3, r), SUM).wait()
    out["iallgather"] = raw.iallgather(r * r).wait()
    ring = raw.dist_graph_create_adjacent([(r - 1) % p], [(r + 1) % p])
    out["neighbor_alltoall"] = ring.neighbor_alltoall([np.full(r + 1, r)])
    out["neighbor_alltoallv"] = ring.neighbor_alltoallv(
        np.full(r + 1, r, dtype=np.int64), [r + 1], [(r - 1) % p + 1])
    return out


def p2p_program(raw, probes):
    """Every declared point-to-point and management call, deterministic at
    any p: each receive has exactly one message it can match."""
    p, r = raw.size, raw.rank
    right, left = (r + 1) % p, (r - 1) % p
    out = {}
    raw.send(np.full(2, r), right, tag=3)
    out["recv"] = raw.recv()  # wildcard source and tag
    req = raw.irecv(left, 4)
    raw.isend([r, "x" * r], right, tag=4).wait()
    out["irecv"] = req.wait()
    out["sendrecv"] = raw.sendrecv(r * 3, right)  # wildcard receive half
    out["sendrecv_tagged"] = raw.sendrecv(np.arange(r + 1), right, left,
                                          sendtag=5, recvtag=5)
    req = raw.irecv(tag=7)  # wildcard source, matched at the wait
    raw.ssend(r + 0.5, right, tag=7)
    out["ssend"] = req.wait()
    req = raw.irecv(left, 8)
    sync = raw.issend(np.arange(r + 2), right, tag=8)
    out["issend"] = req.wait()
    sync.wait()
    if probes:
        raw.send(r, right, tag=9)
        out["probe"] = raw.probe(left, 9)
        out["iprobe"] = raw.iprobe(tag=9)
        out["probed"] = raw.recv(left, 9)
    twin = raw.dup()
    out["dup"] = twin.allreduce(r + 1, SUM)
    half = raw.split(r % 2, -r)
    out["split"] = half.allgather(r)
    out["split_none"] = raw.split(None if r == 0 else 1) is None
    ring = raw.dist_graph_create_adjacent([left], [right])
    out["graph"] = ring.neighbor_alltoall([r * r])
    return out


def plain(value):
    """A value as text-stable plain data (arrays with dtype, floats exact)."""
    if isinstance(value, np.ndarray):
        return ("nd", value.dtype.str, value.shape, value.tolist())
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, np.integer):
        return ("np", int(value))
    if isinstance(value, Op):
        return ("op", value.name)
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, dict):
        return sorted((str(k), plain(v)) for k, v in value.items())
    if dataclasses.is_dataclass(value):
        return (type(value).__name__, plain(dataclasses.asdict(value)))
    return value


def show(res, p: int, prefix: str = "") -> None:
    for r in range(p):
        print(f"{prefix}value[{r}]", plain(res.values[r]))
        print(f"{prefix}clock[{r}]", res.times[r].hex())
        print(f"{prefix}counts[{r}]", sorted(res.counts[r].items()))
        for e in res.trace.events_for(r):
            print(f"{prefix}event[{r}]", plain(e))


def run(fn, p: int, args: tuple, ir: str):
    return run_mpi(fn, p, args=args, trace=True, ir=ir,
                   engine=CollectiveEngine(CostModel(), env={}))


def main() -> None:
    for p in PS:
        for root in sorted({0, p - 1}):
            res = run(program, p, (root,), "record")
            print(f"== p={p} root={root}")
            show(res, p)
            for r in range(p):
                for n in res.ir.epoch.ops[r]:
                    print(f"node[{r}]", plain(n))
    for p in PS:
        for probes, ir in ((True, "record"), (False, "optimize")):
            res = run(p2p_program, p, (probes,), ir)
            print(f"== p2p p={p} ir={ir}")
            show(res, p)
            report = res.ir
            print("unsupported", sorted(report.epoch.unsupported))
            for r in range(p):
                for n in report.epoch.ops[r]:
                    print(f"node[{r}]", plain(n))
            if report.optimized is None:
                continue
            print("rewrites", report.pass_rewrites())
            print("replay", plain(report.replay_stats))
            show(report.replay, p, "replay.")
            for r in range(p):
                for n in report.optimized.ops[r]:
                    print(f"optimized[{r}]", plain(n))


if __name__ == "__main__":
    main()
