#!/usr/bin/env python
"""Quickstart: the paper's running example at every abstraction level.

Reproduces Fig. 1 (one-liner ↔ fully-tuned call) and Fig. 3 (gradual
migration from plain-MPI style to KaMPIng style), plus a short tour of
out-parameters, move semantics, resize policies, the §III-D4 type system
(reflected records, runtime-built datatypes), the §III-E non-blocking calls
whose results own their buffers, and the measurement timers and counters.

Run:  python examples/quickstart.py
"""

from dataclasses import dataclass

import numpy as np

from repro.core import (
    BoundedRequestPool,
    Counter,
    InFlightAccessError,
    Timer,
    destination,
    fixed_array,
    is_trivially_copyable,
    move,
    recv_buf,
    recv_counts,
    recv_counts_out,
    recv_displs_out,
    register_type,
    resize_to_fit,
    run,
    send_buf,
    send_buf_out,
    send_recv_buf,
    source,
    type_contiguous,
    type_struct,
    type_vector,
)
from repro.mpi import expect_calls


@dataclass
class Particle:
    """A trivially-copyable record (Fig. 4): reflected once, sent as bytes."""

    id: int
    pos: fixed_array(np.float64, 3)


class Cell:
    """Names a datatype built at runtime (§III-D2) in the type registry."""


#: a record whose layout is only known at runtime; registered with
#: ``as_bytes=False`` it takes the gap-respecting derived-datatype path
CELL = type_struct([("key", np.int64), ("xyz", type_contiguous(np.float32, 3))])
register_type(Cell, CELL, as_bytes=False)


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

    # ... or take the fields by name, each exactly once (move semantics)
    named = comm.allgatherv(send_buf(v), recv_counts_out())
    assert len(named) == 2 and "recv_counts" in named.keys()
    assert named.extract_recv_counts() == rcounts
    assert named.extract("recv_buf").tolist() == v_global.tolist()

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
    # §III-D4: a list of dataclasses travels as contiguous bytes and comes
    # back as objects; a registered runtime-built record is packed instead
    mine = [Particle(rank, [float(rank), 0.5, -1.0])]
    particles = comm.allgatherv(send_buf(mine))
    cells = np.zeros(rank + 1, dtype=CELL)
    cells["key"] = rank
    all_cells = comm.allgatherv(send_buf(cells))
    strided = type_vector(np.int32, count=2, blocklength=1, stride=2)
    assert is_trivially_copyable(CELL) and strided.itemsize == 16  # holes
    assert [p.id for p in particles] == list(range(size))
    assert all_cells["key"].tolist() == [r for r in range(size)
                                         for _ in range(r + 1)]

    # ------------------------------------------------------------------
    # §III-E: a ring exchange of non-blocking calls whose results own their
    # buffers.  The moved-in send buffer is write-protected and unreachable
    # until wait() hands it back; the received data exists only once test()
    # (or wait()) saw the operation complete.  A pool of one slot completes
    # the send before it takes the receive.
    timer, counter = Timer(comm), Counter(comm)
    pool = BoundedRequestPool(slots=1)
    timer.synchronize_and_start("tour")  # a barrier first: ranks aligned
    with timer.scoped("ring"):
        sent = pool.submit(comm.isend(send_buf_out(move(v)),
                                      destination((rank + 1) % size)))
        try:
            sent.held_buffer()
            raise AssertionError("an in-flight buffer was reachable")
        except InFlightAccessError:
            pass
        incoming = pool.submit(comm.irecv(source((rank - 1) % size)))
        v = pool.displaced[0]  # the send's wait() handed the buffer back
        while incoming.test() is None:
            pass
        assert len(pool) == 1 and pool.test_all()
        (from_left,) = pool.wait_all()
        counter.add("ring messages", 2)
    timer.stop()
    assert timer.local()["tour.ring"]["count"] == 1  # this rank, no traffic
    assert counter.local() == {"ring messages": 2}
    ring = timer.aggregate()["tour.ring"]  # min / max / mean / sum over ranks
    messages = counter.aggregate()["ring messages"]["sum"]
    v[0] = v[0]  # writable again: wait() lifted the write protection

    assert v_global.tolist() == v_glob1.tolist() == v_glob2 \
        == v_glob3.tolist() == v_global2.tolist()
    assert from_left.tolist() == list(range((rank - 1) % size + 1))
    if comm.is_root():
        print(f"ranks            : {size}")
        print(f"local vector     : {v.tolist()}")
        print(f"global vector    : {v_global.tolist()}")
        print(f"receive counts   : {rcounts}")
        print(f"displacements    : {rdispls}")
        print("all five abstraction levels agree ✓")
        print(f"records          : {len(particles)} particles, "
              f"{len(all_cells)} runtime-typed cells")
        print(f"ring exchange    : {from_left.tolist()} from rank {size - 1}, "
              f"{messages:.0f} messages, max {ring['max'] * 1e6:.1f} µs "
              f"(virtual)")
    return v_global


if __name__ == "__main__":
    res = run(main, num_ranks=4)
    print(f"PMPI counters    : {res.total_calls('allgatherv')} raw "
          f"allgatherv calls over all ranks")
