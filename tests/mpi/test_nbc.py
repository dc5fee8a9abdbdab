"""Non-blocking collectives: progress-on-test state machines."""

import time

import numpy as np
import pytest

from repro.mpi import MAX, SUM, CollectiveEngine, run_mpi, user_op, waitall
from tests.conftest import SMALL_P, runp


@pytest.mark.parametrize("p", SMALL_P)
def test_ibcast_all_roots(p):
    def main(comm):
        out = []
        for root in range(p):
            req = comm.ibcast(f"msg{root}" if comm.rank == root else None, root)
            out.append(req.wait())
        return out

    res = runp(main, p, deadline=30)
    for v in res.values:
        assert v == [f"msg{r}" for r in range(p)]


@pytest.mark.parametrize("p", SMALL_P)
def test_iallreduce_matches_blocking(p):
    def main(comm):
        req = comm.iallreduce(np.array([comm.rank, 1.0]), SUM)
        blocking = comm.allreduce(np.array([comm.rank, 1.0]), SUM)
        nb = req.wait()
        return np.array_equal(np.asarray(nb), np.asarray(blocking))

    assert all(runp(main, p, deadline=30).values)


@pytest.mark.parametrize("p", SMALL_P)
def test_iallgather_order(p):
    def main(comm):
        req = comm.iallgather((comm.rank, "x"))
        return req.wait()

    res = runp(main, p, deadline=30)
    assert res.values[0] == [(i, "x") for i in range(p)]


def test_overlap_with_computation():
    """Initiate, compute, complete — the collective overlaps the compute."""
    def main(comm):
        req = comm.iallreduce(comm.rank + 1, SUM)
        comm.compute(0.25)
        total = req.wait()
        return total, comm.clock.now

    res = runp(main, 4, deadline=30)
    assert all(v[0] == 10 for v in res.values)


def test_multiple_outstanding_nbc():
    def main(comm):
        reqs = [comm.iallreduce(comm.rank + i, SUM) for i in range(5)]
        return waitall(reqs)

    res = runp(main, 4, deadline=30)
    base = 0 + 1 + 2 + 3
    assert res.values[0] == [base + 4 * i for i in range(5)]


def test_test_polls_without_blocking():
    def main(comm):
        req = comm.ibcast("late" if comm.rank == 0 else None, 0)
        polls = 0
        while True:
            done, value = req.test()
            polls += 1
            if done:
                return value, polls >= 1

    res = runp(main, 4, deadline=30)
    assert all(v[0] == "late" for v in res.values)


def test_iallreduce_max():
    def main(comm):
        return comm.iallreduce(comm.rank * comm.rank, MAX).wait()

    assert all(v == 36 for v in runp(main, 7, deadline=30).values)


def test_iallreduce_rejects_non_commutative():
    def main(comm):
        comm.iallreduce("a", user_op(lambda a, b: a + b, commutative=False))

    with pytest.raises(RuntimeError, match="commutative"):
        runp(main, 2)


def test_nbc_counted_once():
    def main(comm):
        comm.ibcast(1 if comm.rank == 0 else None, 0).wait()
        comm.iallreduce(1, SUM).wait()
        comm.iallgather(comm.rank).wait()
        counts = comm.machine.profile[comm.world_rank]
        return (counts["ibcast"], counts["iallreduce"], counts["iallgather"],
                counts["irecv"])

    res = runp(main, 4, deadline=30)
    for ib, ia, ig, irecv in res.values:
        assert (ib, ia, ig) == (1, 1, 1)
        assert irecv == 0  # internal machinery is uncounted (PMPI-clean)


def test_wrapped_nbc_with_safety():
    from repro.core import Communicator, as_serialized, op, root, send_buf, send_recv_buf

    def main(raw):
        comm = Communicator(raw)
        # serialized ibcast (the Fig. 11 pattern, non-blocking)
        obj = {"cfg": [1, 2]} if raw.rank == 0 else None
        r1 = comm.ibcast(send_recv_buf(as_serialized(obj)), root(0))
        # poisoned send buffer during iallreduce
        arr = np.array([raw.rank + 1.0])
        r2 = comm.iallreduce(send_buf(arr), op(SUM))
        try:
            arr[0] = 99.0
            poisoned = False
        except ValueError:
            poisoned = True
        cfg = r1.wait()
        total = r2.wait()
        arr[0] = 99.0  # restored after completion
        r3 = comm.iallgather(send_buf(np.array([raw.rank])))
        gathered = np.asarray(r3.wait())
        return cfg, np.asarray(total).tolist(), poisoned, gathered.tolist()

    res = run_mpi(main, 4, deadline=30)
    for cfg, total, poisoned, gathered in res.values:
        assert cfg == {"cfg": [1, 2]}
        assert total == [10.0]
        assert poisoned
        assert gathered == [0, 1, 2, 3]


def test_ibcast_rejects_out_of_range_root():
    """One schedule, one validation: ``ibcast`` raises what ``bcast`` raises
    (it used to take the root mod p and broadcast from the wrong rank)."""
    def main(comm):
        comm.ibcast("x", root=5)

    with pytest.raises(RuntimeError,
                       match="RawUsageError: root 5 out of range for size 4"):
        runp(main, 4, deadline=2.0)


@pytest.mark.parametrize("p", (2, 3, 4, 7))
def test_nbc_virtual_times_equal_the_blocking_default(p):
    """With nothing computed in between, start + wait costs exactly what the
    blocking default algorithm costs, on every rank."""
    def nonblocking(comm):
        comm.ibcast("x" * 40 if comm.rank == p - 1 else None, p - 1).wait()
        comm.iallreduce(np.arange(3) + comm.rank, SUM).wait()
        comm.iallgather((comm.rank, "y")).wait()

    def blocking(comm):
        comm.bcast("x" * 40 if comm.rank == p - 1 else None, p - 1)
        comm.allreduce(np.arange(3) + comm.rank, SUM)
        comm.allgather((comm.rank, "y"))

    def times(main):
        # env={}: forced-algorithm CI lanes must not steer the blocking side
        return runp(main, p, deadline=30,
                    engine=CollectiveEngine(env={})).times

    assert times(nonblocking) == times(blocking)


def test_wait_raises_deadlock_when_a_rank_never_joins():
    def main(comm):
        if comm.rank != 0:
            comm.iallreduce(1, SUM).wait()

    start = time.monotonic()
    with pytest.raises(RuntimeError, match="RawDeadlockError"):
        runp(main, 3, deadline=0.5, backend="thread")
    assert time.monotonic() - start < 5.0
