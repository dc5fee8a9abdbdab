"""Everything observable about the raw collectives, as diffable text.

One program calls all 17 blocking collectives and the three ``i*`` ones; it
runs traced and under ``ir="record"`` at p ∈ {1, 2, 3, 4, 7} with root ∈
{0, p−1}, and every per-rank value, virtual clock, PMPI count, trace event
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


def main() -> None:
    for p in PS:
        for root in sorted({0, p - 1}):
            res = run_mpi(program, p, args=(root,), trace=True, ir="record",
                          engine=CollectiveEngine(CostModel(), env={}))
            print(f"== p={p} root={root}")
            for r in range(p):
                print(f"value[{r}]", plain(res.values[r]))
                print(f"clock[{r}]", res.times[r].hex())
                print(f"counts[{r}]", sorted(res.counts[r].items()))
                for e in res.trace.events_for(r):
                    print(f"event[{r}]", plain(e))
                for n in res.ir.epoch.ops[r]:
                    print(f"node[{r}]", plain(n))


if __name__ == "__main__":
    main()
