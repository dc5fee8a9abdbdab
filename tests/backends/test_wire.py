"""Wire conformance: what a payload looks like after crossing a rank boundary.

The process backend frames every message itself (a plain C-contiguous array
behind a fixed header; anything else as a protocol-5 pickle with array
storage out of band; both gather-written from the sender's memory and read
into the receiver's, a buffer of 32 KiB or more through a shared-memory
ring); the thread backend hands over a send-time snapshot.  Both must
deliver the same thing: equal values, dtype (byte order included), shape and
memory order, always writeable and never aliasing the send buffer (nor, on
processes, the ring).

Rank functions are module-level so the CI ``process`` cell can rerun this
file with ``REPRO_PROCESS_START=spawn``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core import run, send_buf
from repro.mpi.backends.process import _EAGER, _HALF, ProcessBackend

BIG = 1 << 21  # int64 elements: 16 MiB, larger than any pipe buffer


def _zoo() -> dict:
    """Payloads by name, built identically on every rank and in the test."""
    read_only = np.arange(64, dtype=np.int64)
    read_only.flags.writeable = False
    grid = np.arange(24, dtype=np.float64).reshape(4, 6)
    record = np.zeros(5, dtype=[("key", "<i4"), ("weight", "<f8")])
    record["key"] = np.arange(5)
    return {
        "read_only": read_only,
        # ... and inside a pickled payload: the one deep copy left
        "read_only_nested": {"frozen": read_only, "n": 64},
        "c_2d": grid,
        "fortran_2d": np.asfortranarray(grid),
        "strided": grid[::2, 1::2],
        "zero_length": np.empty(0, dtype=np.int32),
        "zero_d": np.array(7.5),
        "structured": record,
        "big_endian": np.arange(9, dtype=">u4"),
        "big_endian_datetime": np.array(
            ["2024-02-29T12:00", "NaT", "1969-07-20T20:17"], dtype=">M8[ns]"),
        "bool": np.arange(10) % 3 == 0,
        "bytes": bytes(range(256)) * 54,
        "bytearray": bytearray(b"mutable bytes"),
        # more out-of-band buffers in one frame than IOV_MAX
        "many_arrays": [np.full(3, i, dtype=np.int16) for i in range(1500)],
        "dict": {"ids": np.arange(5, dtype=np.uint8), "scale": 2.5,
                 "name": "mixed", "empty": np.empty((0, 3))},
        "tuple": (3, np.ones((2, 2), order="F"), None, [np.int32(4), 1.5]),
    }


def _describe(obj, writeable=None):
    """Values plus everything about an array the transports must preserve."""
    if isinstance(obj, np.ndarray):
        fortran = obj.flags.f_contiguous and not obj.flags.c_contiguous
        return ("ndarray", obj.dtype.str, obj.shape, "F" if fortran else "C",
                obj.flags.writeable if writeable is None else writeable,
                obj.tobytes())
    if isinstance(obj, dict):
        return {k: _describe(v, writeable) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return (type(obj).__name__,
                *(_describe(v, writeable) for v in obj))
    return (type(obj).__name__, obj)


def _send_zoo(comm):
    zoo = _zoo()
    if comm.rank == 0:
        for tag, payload in enumerate(zoo.values()):
            comm.send(payload, 1, tag)
        return None
    return {name: _describe(comm.recv(0, tag)[0])
            for tag, name in enumerate(zoo)}


def test_payload_zoo_arrives_as_sent(differential):
    got = differential(_send_zoo, 2).values[1]
    for name, payload in _zoo().items():
        # as sent, except that the receiver may always write to its copy
        assert got[name] == _describe(payload, writeable=True), name


def _overwrite_after_send(comm, width):
    """Every send flavour, each followed at once by a clobbered buffer."""
    if comm.rank == 0:
        for tag, post in enumerate((comm.send, comm.isend, comm.issend)):
            buf = np.arange(width, dtype=np.int64)
            req = post(buf, 1, tag)
            buf[:] = -1
            if req is not None:
                req.wait()
        nested = [np.arange(width, dtype=np.int64), {"k": np.zeros(3)}]
        comm.send(nested, 1, 3)
        nested[0][:] = -1
        nested[1]["k"][:] = -1
        return None
    flat = [comm.recv(0, tag)[0] for tag in range(3)]
    nested = comm.recv(0, 3)[0]
    return ([bool((a == np.arange(width)).all()) for a in flat],
            bool((nested[0] == np.arange(width)).all()),
            nested[1]["k"].tolist())


def test_send_buffer_is_free_once_the_send_returns(differential):
    for width in (8, 1 << 17):  # 64 B, and 1 MiB: the write has to block
        res = differential(_overwrite_after_send, 2, args=(width,))
        assert res.values[1] == ([True, True, True], True, [0.0, 0.0, 0.0])


def _digest(arr):
    return (arr.dtype.str, arr.shape, arr.flags.writeable, int(arr.sum()),
            arr[:: BIG // 64].tolist())


def _big_ring(comm):
    """16 MiB to the right neighbour from every rank at once, inside an
    open ``ibarrier``: all main threads block in their writes together."""
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    barrier = comm.ibarrier()
    req = comm.isend(np.arange(BIG, dtype=np.int64) + comm.rank, right, 9)
    got, status = comm.recv(left, 9)
    req.wait()
    barrier.wait()
    assert (got == np.arange(BIG, dtype=np.int64) + left).all()
    got[0] = -5  # writeable, 16 MiB or not
    return _digest(got), status.nbytes


def test_sixteen_mib_both_ways_at_once(differential):
    for p in (2, 3):
        res = differential(_big_ring, p)
        assert [v[1] for v in res.values] == [8 * BIG] * p


def _sync_then_big(comm):
    """A small ``issend`` and then a blocking 2 MiB ``send`` each way: each
    rank's pump has to acknowledge the peer's ``issend`` while its own main
    thread is parked in a write to the very pipe the ack goes down.  The
    barrier starts both ranks together; eight rounds make it all but certain
    that some ack meets a blocked write (10 of 10 runs hung before control
    frames had their own queue, 8 of 10 with one round)."""
    other = 1 - comm.rank
    seen = []
    for _ in range(8):
        comm.barrier()
        posted = comm.irecv(other, 1)
        sync = comm.issend(np.arange(4, dtype=np.int64) + comm.rank, other, 1)
        comm.send(np.full(1 << 18, comm.rank, dtype=np.int64), other, 2)
        big, big_status = comm.recv(other, 2)
        small, small_status = posted.wait()
        sync.wait()
        seen.append((small.tolist(), small_status.nbytes, int(big.sum()),
                     big_status.nbytes, comm.clock.now))
    return seen


@pytest.mark.timeout(20)
def test_an_ack_never_waits_behind_its_own_ranks_blocked_write(differential):
    started = time.perf_counter()
    res = differential(_sync_then_big, 2, deadline=5.0)
    elapsed = time.perf_counter() - started
    for rank, other in ((0, 1), (1, 0)):
        for small, small_nbytes, big_sum, big_nbytes, _ in res.values[rank]:
            assert small == [other + i for i in range(4)]
            assert (small_nbytes, big_sum, big_nbytes) == (
                32, other << 18, 1 << 21)
    assert elapsed < 5.0, f"{elapsed:.1f} s: frames waited on each other"


# -- payloads that cross the process backend's shared-memory ring -------------


def _ring_zoo() -> dict:
    """Buffers at the ring's edges, built identically on every rank."""
    read_only = np.arange(_EAGER, dtype=np.int32)
    read_only.flags.writeable = False
    return {
        "below_eager": np.arange(_EAGER // 8 - 1, dtype=np.int64),
        "at_eager": np.arange(_EAGER // 8, dtype=np.int64),
        # three chunks, the last one byte long: both halves, then the first
        "two_halves_and_a_byte": np.arange(2 * _HALF + 1).astype(np.uint8),
        # in one pickled frame: one buffer on the pipe, one in the ring
        "small_and_big": [np.arange(5, dtype=np.int16),
                          np.arange(3 * _EAGER, dtype=np.float32)],
        "big_endian_datetime": (np.arange(_EAGER, dtype=">i8") * 60_000
                                ).astype(">M8[ms]"),
        "read_only": read_only,
    }


def _send_ring_zoo(comm):
    zoo = _ring_zoo()
    if comm.rank == 0:
        for tag, payload in enumerate(zoo.values()):
            comm.send(payload, 1, tag)
        return None
    return {name: _describe(comm.recv(0, tag)[0])
            for tag, name in enumerate(zoo)}


def test_ring_sized_payloads_arrive_as_sent(differential):
    got = differential(_send_ring_zoo, 2).values[1]
    for name, payload in _ring_zoo().items():
        assert got[name] == _describe(payload, writeable=True), name


def _keep_the_first_of_two(comm):
    """A message of one chunk, then one of three that rewrites both halves
    of the ring: a first array that aliased the ring would change."""
    first = np.full(_HALF, 1, dtype=np.uint8)
    second = np.full(2 * _HALF + 1, 2, dtype=np.uint8)
    if comm.rank == 0:
        comm.send(first, 1, 0)
        comm.send(second, 1, 1)
        return None
    kept = comm.recv(0, 0)[0]
    later = comm.recv(0, 1)[0]
    later[:] = 3  # and writing the second leaves the first alone
    return kept.tobytes() == first.tobytes()


def test_a_received_array_never_aliases_the_ring(differential):
    assert differential(_keep_the_first_of_two, 2).values[1] is True


def _wrapped_allgatherv(comm, width):
    return comm.allgatherv(send_buf(np.arange(comm.rank + width))).tolist()


def test_core_run_starts_spawned_process_ranks():
    """``repro.core.run``'s rank entry is module-level, so a spawned process
    rank can import it: a module-level program runs through the wrapped
    communicator and returns its values."""
    res = run(_wrapped_allgatherv, 3, args=(1,),
              backend=ProcessBackend("spawn"))
    assert res.values == [[0, 0, 1, 0, 1, 2]] * 3
