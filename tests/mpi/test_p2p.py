"""Point-to-point semantics of the raw runtime."""

import time

import numpy as np
import pytest

from repro.mpi import (
    ANY_SOURCE,
    ANY_TAG,
    PROC_NULL,
    RawDeadlockError,
    RawUsageError,
    run_mpi,
)
from tests.conftest import runp


def test_send_recv_roundtrip():
    def main(comm):
        if comm.rank == 0:
            comm.send(np.array([1, 2, 3]), dest=1, tag=5)
            return None
        payload, status = comm.recv(source=0, tag=5)
        return payload.tolist(), status.source, status.tag, status.nbytes

    res = runp(main, 2)
    assert res.values[1] == ([1, 2, 3], 0, 5, 24)


def test_send_is_buffered_snapshot():
    """Mutating the send buffer after send() must not affect the receiver."""
    def main(comm):
        if comm.rank == 0:
            buf = np.array([10, 20])
            comm.send(buf, 1)
            buf[0] = 999
            return None
        payload, _ = comm.recv(0)
        return payload.tolist()

    assert runp(main, 2).values[1] == [10, 20]


def test_non_overtaking_same_source_tag():
    def main(comm):
        if comm.rank == 0:
            for i in range(20):
                comm.send(i, 1, tag=3)
            return None
        return [comm.recv(0, 3)[0] for _ in range(20)]

    assert runp(main, 2).values[1] == list(range(20))


def test_tag_matching_selects_correct_message():
    def main(comm):
        if comm.rank == 0:
            comm.send("a", 1, tag=1)
            comm.send("b", 1, tag=2)
            return None
        b, _ = comm.recv(0, tag=2)
        a, _ = comm.recv(0, tag=1)
        return a, b

    assert runp(main, 2).values[1] == ("a", "b")


def test_wildcard_source_and_tag():
    def main(comm):
        if comm.rank == 0:
            got = []
            for _ in range(comm.size - 1):
                payload, status = comm.recv(ANY_SOURCE, ANY_TAG)
                got.append((status.source, payload))
            return sorted(got)
        comm.send(comm.rank * 10, 0, tag=comm.rank)
        return None

    res = runp(main, 4)
    assert res.values[0] == [(1, 10), (2, 20), (3, 30)]


def test_ssend_waits_for_match():
    """ssend completes only after the receiver matched (rendezvous clock)."""
    def main(comm):
        if comm.rank == 0:
            comm.ssend(np.arange(4), 1)
            return comm.clock.now
        comm.compute(1.0)  # receiver is late
        payload, _ = comm.recv(0)
        return comm.clock.now

    res = runp(main, 2)
    # sender's clock must have advanced to (at least near) the receiver's
    assert res.values[0] >= 1.0


def test_proc_null_send_recv_are_noops():
    def main(comm):
        comm.send("x", PROC_NULL)
        payload, status = comm.recv(PROC_NULL)
        return payload, status.source

    res = runp(main, 1)
    assert res.values[0] == (None, PROC_NULL)


def test_probe_and_iprobe():
    def main(comm):
        if comm.rank == 0:
            comm.send(np.arange(5), 1, tag=9)
            return None
        status = comm.probe(0, 9)
        flag, st2 = comm.iprobe(0, 9)
        payload, _ = comm.recv(0, 9)
        # iprobe must not consume the message
        return status.nbytes, flag, st2.tag, payload.tolist()

    res = runp(main, 2)
    assert res.values[1] == (40, True, 9, [0, 1, 2, 3, 4])


def test_iprobe_no_message():
    def main(comm):
        return comm.iprobe(ANY_SOURCE, ANY_TAG)

    assert runp(main, 1).values[0] == (False, None)


def test_invalid_peer_rank_raises():
    def main(comm):
        comm.send(1, dest=99)

    with pytest.raises(RuntimeError, match="RawUsageError"):
        runp(main, 2)


def test_invalid_tag_raises():
    def main(comm):
        comm.send(1, 0, tag=-5)

    with pytest.raises(RuntimeError, match="RawUsageError"):
        runp(main, 1)


def test_recv_deadlock_detected():
    def main(comm):
        comm.recv(source=0)

    with pytest.raises(RuntimeError, match="deadlock|RawDeadlock"):
        run_mpi(main, 2, deadline=0.3)


def test_object_payloads_deep_copied():
    def main(comm):
        if comm.rank == 0:
            payload = {"xs": [1, 2]}
            comm.send(payload, 1)
            payload["xs"].append(3)
            return None
        got, _ = comm.recv(0)
        return got

    assert runp(main, 2).values[1] == {"xs": [1, 2]}


def test_self_send_recv():
    def main(comm):
        comm.send("self", comm.rank, tag=1)
        payload, _ = comm.recv(comm.rank, tag=1)
        return payload

    assert runp(main, 3).values[2] == "self"


def test_many_to_one_fifo_per_source():
    def main(comm):
        if comm.rank == 0:
            seqs = {r: [] for r in range(1, comm.size)}
            for _ in range(10 * (comm.size - 1)):
                payload, status = comm.recv(ANY_SOURCE, 0)
                seqs[status.source].append(payload)
            return seqs
        for i in range(10):
            comm.send(i, 0)
        return None

    res = runp(main, 4)
    for source, seq in res.values[0].items():
        assert seq == list(range(10)), source


# ---------------------------------------------------------------------------
# MPI_Cancel semantics: a matched receive must complete (the cancel race)
# ---------------------------------------------------------------------------


def test_cancel_after_match_delivers():
    """Cancelling a receive the deposit already matched must fail, and the
    message must still be delivered — not silently dropped."""
    def main(comm):
        if comm.rank == 1:
            comm.send(np.array([3, 4]), dest=0, tag=9)
            comm.barrier()
            return None
        comm.barrier()  # the message has certainly arrived
        req = comm.irecv(source=1, tag=9)  # matches from the unexpected queue
        assert req.cancel() is False
        assert req.cancelled is False
        payload, status = req.wait()
        return payload.tolist(), status.tag

    assert runp(main, 2).values[0] == ([3, 4], 9)


def test_cancel_before_match_requeues_message():
    """A successfully cancelled receive must not consume a later message:
    it stays in the unexpected queue for the next matching receive."""
    def main(comm):
        if comm.rank == 0:
            req = comm.irecv(source=1, tag=2)
            assert req.cancel() is True
            assert req.cancel() is True  # idempotent
            comm.barrier()  # now rank 1 sends
            comm.barrier()
            payload, _ = comm.recv(source=1, tag=2)
            return payload.tolist()
        comm.barrier()
        comm.send(np.array([11]), dest=0, tag=2)
        comm.barrier()
        return None

    assert runp(main, 2).values[0] == [11]


def test_cancelled_recv_wait_raises_test_completes():
    def main(comm):
        req = comm.irecv(source=1, tag=6)
        assert req.cancel()
        done, value = req.test()
        assert done and value is None
        with pytest.raises(RawUsageError):
            req.wait()
        comm.barrier()
        return "ok"

    assert runp(main, 2).values[0] == "ok"


def test_ssend_completes_when_matched_recv_cancel_fails():
    """A synchronous sender must not be left believing its message was
    received if the matching receive is then 'cancelled': the cancel fails
    and the receive delivers, keeping both sides consistent."""
    def main(comm):
        if comm.rank == 1:
            comm.ssend(np.array([5]), dest=0, tag=3)
            return "sent"
        req = comm.irecv(source=1, tag=3)
        while req._pr.envelope is None:
            time.sleep(0.001)  # wait for the ssend to match
        assert req.cancel() is False
        payload, _ = req.wait()
        return payload.tolist()

    res = runp(main, 2)
    assert res.values == [[5], "sent"]
