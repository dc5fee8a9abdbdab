"""Everything the rewrite passes do to an epoch, as diffable text.

The IR twin of ``raw_collectives_fingerprint.py``.  ``apps/ir_demo`` sample
sort and BFS at p ∈ {4, 8} and one raw program with work for all six passes
at p ∈ {2, 3, 4, 8} run under ``ir="optimize"`` (so every optimized epoch is
also replayed and verified); per case the rewrite counts, every
``PassResult.details`` string and a SHA-256 over every optimized node — idx,
rank, kind, op, comm, seq, args, payload and result in
:func:`repro.mpi.ir.nodes.canonical` form, deps, provenance — are printed.  A
change to ``mpi/ir/passes.py`` is behaviour-preserving when the output of two
commits is identical::

    PYTHONPATH=src python benchmarks/ir_epoch_fingerprint.py > change.txt
    (cd <parent checkout> && PYTHONPATH=src python \\
        <this file> > parent.txt) && diff parent.txt change.txt

``--nodes`` prints the hashed node lines as well, to locate a difference.
The engine is built with ``env={}``, so ``REPRO_COLL_*`` cannot leak in.
"""

from __future__ import annotations

import hashlib
import sys

import numpy as np

from repro.apps.ir_demo import bfs_epoch, sample_sort_epoch
from repro.mpi import MAX, SUM, CollectiveEngine, Op, run_mpi
from repro.mpi.ir.nodes import canonical


def six_pass_program(raw):
    """Raw-style code with one target per pass, in pipeline order."""
    p, r = raw.size, raw.rank
    out = {}
    # fuse_reduce_bcast, twice
    out["sum"] = raw.bcast(raw.reduce(r + 1, SUM, 0), 0)
    out["max"] = raw.bcast(raw.reduce(r * 2.5, MAX, 0), 0)
    # batch_bcasts: three scalar bcasts from one root
    out["config"] = [raw.bcast(v if r == 0 else None, 0) for v in (7, 8, 9)]
    # coalesce_sends: three scalar sends that are a channel's whole traffic
    if r == 0:
        for k in range(3):
            raw.send(k * 11, 1, tag=5)
    if r == 1:
        out["packed"] = [raw.recv(0, 5)[0] for _ in range(3)]
    # ring_to_sendrecv: a shift by one
    raw.send(r * 7, (r + 1) % p, tag=2)
    out["ring"] = raw.recv((r - 1) % p, 2)[0]
    # fuse_count_exchange: the count alltoall written by hand
    sendcounts = [(r + d) % 3 for d in range(p)]
    recvcounts = raw.alltoall(sendcounts)
    out["exchange"] = raw.alltoallv(
        np.arange(sum(sendcounts), dtype=np.int64) + 100 * r, sendcounts,
        recvcounts).tolist()
    # overlap_waits: a completed irecv followed by independent compute
    if r == 0:
        raw.send(np.arange(8), 1, tag=1)
    if r == 1:
        arrived = raw.irecv(0, 1).wait()
        raw.compute(5e-6)
        out["overlap"] = int(arrived[0].sum())
    return out


CASES = (
    [("sample_sort", sample_sort_epoch, p) for p in (4, 8)]
    + [("bfs", bfs_epoch, p) for p in (4, 8)]
    + [("six_pass", six_pass_program, p) for p in (2, 3, 4, 8)]
)


def node_line(w: int, node) -> str:
    args = {k: v.name if isinstance(v, Op) else v for k, v in node.args.items()}
    return repr((w, node.idx, node.rank, node.kind, node.op, node.comm,
                 node.seq, canonical(args), canonical(node.payload),
                 canonical(node.result), node.deps, node.ir_pass))


def main(argv) -> None:
    show_nodes = "--nodes" in argv
    for name, fn, p in CASES:
        res = run_mpi(fn, p, ir="optimize", engine=CollectiveEngine(env={}))
        report = res.ir
        print(f"== {name} p={p}: raw ops {report.epoch.total_raw_ops()} -> "
              f"{report.optimized.total_raw_ops()}, bytes "
              f"{report.epoch.total_bytes()} -> "
              f"{report.optimized.total_bytes()}, verified "
              f"{sum(s['verified'] for s in report.replay_stats)}")
        print("rewrites", report.pass_rewrites())
        for result in report.passes:
            for detail in result.details:
                print(f"detail[{result.name}]", detail)
        digest = hashlib.sha256()
        for w, nodes in enumerate(report.optimized.ops):
            for node in nodes:
                line = node_line(w, node)
                digest.update(line.encode())
                if show_nodes:
                    print("node", line)
        print("sha256", digest.hexdigest())


if __name__ == "__main__":
    main(sys.argv[1:])
