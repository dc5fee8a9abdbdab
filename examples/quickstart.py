#!/usr/bin/env python
"""Quickstart: the paper's running example at every abstraction level.

Reproduces Fig. 1 (one-liner ↔ fully-tuned call) and Fig. 3 (gradual
migration from plain-MPI style to KaMPIng style), plus a short tour of
out-parameters, move semantics, resize policies, and the §III-E non-blocking
calls whose results own their buffers.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.core import (
    InFlightAccessError,
    RequestPool,
    Timer,
    destination,
    move,
    recv_buf,
    recv_counts,
    recv_counts_out,
    recv_displs_out,
    resize_to_fit,
    run,
    send_buf,
    send_buf_out,
    send_recv_buf,
    source,
)
from repro.mpi import expect_calls


def main(comm):
    rank, size = comm.rank, comm.size
    v = np.arange(rank + 1, dtype=np.int64)  # every rank holds a different amount

    # ------------------------------------------------------------------
    # (1) Fig. 1: concise code with sensible defaults — a one-liner.
    #     Counts are exchanged internally, displacements prefix-summed.
    v_global = comm.allgatherv(send_buf(v))

    # ------------------------------------------------------------------
    # (2) Fig. 1: ... or detailed tuning of each parameter.
    rc = []  # preallocated container, moved into the call
    result = comm.allgatherv(
        send_buf(v),
        recv_counts_out(move(rc), resize=resize_to_fit),
        recv_displs_out(),
    )
    v_global2, rcounts, rdispls = result  # structured bindings

    # ------------------------------------------------------------------
    # Fig. 3, version 1: everything computed by the caller (plain-MPI style,
    # but already with named parameters and the simplified in-place call).
    rc1 = np.zeros(size, dtype=np.int64)
    rc1[rank] = len(v)
    comm.allgather(send_recv_buf(rc1))              # in-place count exchange
    rd1 = np.concatenate(([0], np.cumsum(rc1)[:-1]))
    v_glob1 = np.zeros(int(rc1.sum()), dtype=np.int64)
    comm.allgatherv(send_buf(v), recv_buf(v_glob1), recv_counts(rc1))

    # Fig. 3, version 2: displacements computed implicitly, container resized.
    v_glob2 = []
    comm.allgatherv(send_buf(v), recv_buf(v_glob2, resize=resize_to_fit),
                    recv_counts(rc1))

    # Fig. 3, version 3: counts exchanged automatically, result by value.
    v_glob3 = comm.allgatherv(send_buf(v))

    # ------------------------------------------------------------------
    # The PMPI profiling view (§III-H): only the expected raw calls happen.
    with expect_calls(comm.raw, allgatherv=1):
        comm.allgatherv(send_buf(v), recv_counts(rc1))  # no hidden traffic

    # ------------------------------------------------------------------
    # §III-E: a ring exchange of non-blocking calls whose results own their
    # buffers.  The moved-in send buffer is write-protected and unreachable
    # until wait() hands it back; the received data exists only after it.
    timer = Timer(comm)
    timer.start("ring")
    pool = RequestPool()
    sent = pool.submit(comm.isend(send_buf_out(move(v)),
                                  destination((rank + 1) % size)))
    pool.submit(comm.irecv(source((rank - 1) % size)))
    try:
        sent.held_buffer()
        raise AssertionError("an in-flight buffer was reachable")
    except InFlightAccessError:
        pass
    v, from_left = pool.wait_all()  # in submission order
    timer.stop()
    ring = timer.aggregate()["ring"]  # min / max / mean / sum over ranks
    v[0] = v[0]  # writable again: wait() lifted the write protection

    assert v_global.tolist() == v_glob1.tolist() == v_glob2 \
        == v_glob3.tolist() == v_global2.tolist()
    assert from_left.tolist() == list(range((rank - 1) % size + 1))
    if rank == 0:
        print(f"ranks            : {size}")
        print(f"local vector     : {v.tolist()}")
        print(f"global vector    : {v_global.tolist()}")
        print(f"receive counts   : {rcounts}")
        print(f"displacements    : {rdispls}")
        print("all five abstraction levels agree ✓")
        print(f"ring exchange    : {from_left.tolist()} from rank {size - 1}, "
              f"max {ring['max'] * 1e6:.1f} µs (virtual)")
    return v_global


if __name__ == "__main__":
    run(main, num_ranks=4)
