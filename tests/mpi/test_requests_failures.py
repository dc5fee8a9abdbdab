"""Raw non-blocking requests, ibarrier, failure injection, and ULFM substrate."""

import contextlib
import gc
import time

import numpy as np
import pytest

from repro.core import Communicator, extend, source
from repro.mpi import (
    ANY_SOURCE,
    SUM,
    FaultCampaign,
    KillAtCheckpoint,
    RawCommRevoked,
    RawDeadlockError,
    RawProcessFailure,
    run_mpi,
)
from repro.mpi import testall as raw_testall
from repro.mpi import waitall as raw_waitall
from repro.mpi import waitany as raw_waitany
from repro.mpi.backends import thread as thread_backend
from repro.plugins import SparseAlltoall
from tests.conftest import runp
from tests.mpi.test_waiting import _RACE_SEEDS


def test_isend_irecv_roundtrip():
    def main(comm):
        if comm.rank == 0:
            req = comm.isend(np.arange(3), 1)
            req.wait()
            return None
        req = comm.irecv(0)
        payload, status = req.wait()
        return payload.tolist(), status.source

    assert runp(main, 2).values[1] == ([0, 1, 2], 0)


def test_irecv_test_polls():
    def main(comm):
        if comm.rank == 0:
            req = comm.irecv(1)
            done, _ = req.test()
            comm.send("go", 1)
            while True:
                done, value = req.test()
                if done:
                    payload, _ = value
                    return payload
        comm.recv(0)
        comm.send("reply", 0)
        return None

    assert runp(main, 2).values[0] == "reply"


def test_issend_completes_on_match():
    def main(comm):
        if comm.rank == 0:
            req = comm.issend("sync", 1)
            done, _ = req.test()  # may or may not be matched yet
            req.wait()
            return True
        payload, _ = comm.recv(0)
        return payload

    res = runp(main, 2)
    assert res.values == [True, "sync"]


def test_waitall_testall_waitany():
    def sender_main(comm):
        if comm.rank == 0:
            reqs = [comm.irecv(1, tag=t) for t in range(3)]
            done, _ = raw_testall(reqs)  # all-or-nothing; may be False early
            i, value = raw_waitany(reqs)
            rest = raw_waitall([r for j, r in enumerate(reqs) if j != i])
            got = [value[0]] + [payload for payload, _ in rest]
            done_after, values_after = raw_testall(reqs)
            assert done_after and len(values_after) == 3
            return sorted(got)
        for t in range(3):
            comm.send(t * 10, 0, tag=t)
        return None

    res = runp(sender_main, 2)
    assert res.values[0] == [0, 10, 20]


def test_waitany_keeps_the_runs_deadline():
    """``waitany`` parks under the deadline of its requests' wait context,
    not a fixed one of its own: a receive nobody sends to ends the run."""
    def main(comm):
        if comm.rank == 0:
            raw_waitany([comm.irecv(1, tag=3)])

    start = time.monotonic()
    with pytest.raises(RuntimeError, match="RawDeadlockError"):
        runp(main, 2, deadline=0.5, backend="thread")
    assert time.monotonic() - start < 2.0


def test_ibarrier_completes_for_all():
    def main(comm):
        req = comm.ibarrier()
        req.wait()
        req2 = comm.ibarrier()
        while not req2.test()[0]:
            pass
        return True

    assert all(runp(main, 4).values)


def test_irecv_cancel():
    def main(comm):
        req = comm.irecv(ANY_SOURCE, tag=5)
        req.cancel()
        comm.barrier()
        return True

    assert all(runp(main, 2).values)


# ---------------------------------------------------------------------------
# failures (injection, ULFM and state the ranks of a test share exist on the
# thread backend only: these runs say so instead of following REPRO_BACKEND)
# ---------------------------------------------------------------------------

def test_recv_from_dead_rank_raises():
    faults = FaultCampaign([KillAtCheckpoint("start", {1})])

    def main(comm):
        faults.checkpoint(comm, "start")
        if comm.rank == 0:
            try:
                comm.recv(1)
            except RawProcessFailure as exc:
                return ("failed", exc.failed_ranks)
        return "alive"

    res = run_mpi(main, 3, deadline=5.0, backend="thread", faults=faults)
    assert res.values[0] == ("failed", [1])
    assert res.values[1] is None
    assert res.failed == frozenset({1})


def test_send_to_dead_rank_raises():
    faults = FaultCampaign([KillAtCheckpoint("start", {2})])

    def main(comm):
        faults.checkpoint(comm, "start")
        if comm.rank == 0:
            import time

            while not comm.failed_ranks():  # wait until the death is visible
                time.sleep(0.01)
            try:
                comm.send("x", 2)
            except RawProcessFailure:
                return "detected"
        return "ok"

    res = run_mpi(main, 3, deadline=5.0, backend="thread", faults=faults)
    assert res.values[0] == "detected"


def test_collective_with_dead_rank_raises_for_participants():
    faults = FaultCampaign([KillAtCheckpoint("mid", {0})])

    def main(comm):
        total = comm.allreduce(1, SUM)
        faults.checkpoint(comm, "mid")
        try:
            comm.allreduce(1, SUM)
            return (total, "second-ok")
        except RawProcessFailure:
            return (total, "second-failed")

    res = run_mpi(main, 2, deadline=5.0, backend="thread", faults=faults)
    assert res.values[1] == (2, "second-failed")


def test_shrink_and_continue():
    faults = FaultCampaign([KillAtCheckpoint("mid", {1, 2})])

    def main(comm):
        faults.checkpoint(comm, "mid")
        shrunk = comm.shrink(generation=0)
        return shrunk.size, shrunk.allreduce(1, SUM)

    res = run_mpi(main, 5, deadline=10.0, backend="thread", faults=faults)
    for r in (0, 3, 4):
        assert res.values[r] == (3, 3)


def test_agree_is_logical_and():
    faults = FaultCampaign([KillAtCheckpoint("mid", {3})])

    def main(comm):
        faults.checkpoint(comm, "mid")
        return comm.agree(comm.rank != 0, generation=0)

    res = run_mpi(main, 4, deadline=10.0, backend="thread", faults=faults)
    assert res.values[0] is False and res.values[1] is False


def test_revoke_wakes_blocked_receivers():
    def main(comm):
        if comm.rank == 0:
            comm.revoke()
            return "revoked"
        try:
            comm.recv(0)  # would block forever
        except Exception as exc:
            return type(exc).__name__

    res = run_mpi(main, 2, deadline=5.0, backend="thread")
    assert res.values[1] == "RawCommRevoked"


#: how long rank 0 has been parked when it is woken: three points across one
#: 50 ms period, so a waiter that *polls* for the news is late at one of them
_PARKED_FOR = (0.100, 0.117, 0.133)


def _wake_latency(block, wake, parked_for, expect, *, match=None,
                  run_raises=None, **run_kwargs):
    """Seconds from rank 1's ``wake(comm)`` to rank 0 leaving ``block(comm)``
    with ``expect``, rank 0 having been parked for ``parked_for`` seconds.
    ``run_raises``: what the run as a whole reports when ``wake`` is an
    exception."""
    shared = {}

    def main(comm):
        if comm.rank == 0:
            shared["parked"] = time.monotonic()
            try:
                with pytest.raises(expect, match=match):
                    block(comm)
            finally:
                shared["left"] = time.monotonic()
            return
        while "parked" not in shared:
            time.sleep(0.001)
        time.sleep(max(shared["parked"] + parked_for - time.monotonic(), 0.0))
        shared["woken"] = time.monotonic()
        wake(comm)

    with (pytest.raises(RuntimeError, match=run_raises) if run_raises
          else contextlib.nullcontext()):
        run_mpi(main, 2, deadline=15.0, backend="thread", **run_kwargs)
    return shared["left"] - shared["woken"]


def test_parked_recv_fails_as_soon_as_its_source_does():
    """A failure is delivered to the receives parked on the failed rank; it
    is not found by the next timer tick, let alone at the 15 s deadline."""
    latencies = [_wake_latency(lambda comm: comm.recv(1),
                               lambda comm: comm.kill_self(),
                               parked_for, RawProcessFailure)
                 for parked_for in _PARKED_FOR]
    assert max(latencies) < 0.025


def test_revoke_wakes_a_parked_probe():
    latencies = [_wake_latency(lambda comm: comm.probe(1),
                               lambda comm: comm.revoke(),
                               parked_for, RawCommRevoked)
                 for parked_for in _PARKED_FOR]
    assert max(latencies) < 0.025


SparseComm = extend(Communicator, SparseAlltoall)


def _waitany_of_four(comm):
    """One ``waitany`` over four kinds of request rank 1 never answers."""
    raw_waitany([comm.irecv(1), comm.issend("never received", 1),
                 comm.ibarrier(), comm.iallreduce(1, SUM)])


#: what rank 0 is parked in when rank 1 raises
_PARKED_IN = {
    # not receives: each relies on the failure check of its own wait
    "ibarrier": lambda comm: comm.ibarrier().wait(),
    "ssend": lambda comm: comm.ssend("never received", 1),
    "issend": lambda comm: comm.issend("never received", 1).wait(),
    # the bindings re-raise rank 0's failure as their own type, chained: it
    # is still the consequence, not the cause
    "wrapped_recv": lambda comm: Communicator(comm).recv(source(1)),
    "waitany": _waitany_of_four,
    # NBX: a wildcard receive, a send rank 1 never matches, in one waitany
    "alltoallv_sparse": lambda comm: SparseComm(comm).alltoallv_sparse(
        {1: np.arange(3)}),
}


@pytest.mark.parametrize("backend", [
    "thread", pytest.param("process", marks=pytest.mark.slow)])
@pytest.mark.parametrize("parked_in", sorted(_PARKED_IN))
def test_a_raising_peer_ends_the_wait_and_is_the_reported_root_cause(
        parked_in, backend):
    """Same behaviour on both backends: rank 0 does not ride the 2 s
    deadline, and the run reports rank 1's exception, not rank 0's."""
    def main(comm):
        if comm.rank == 1:
            time.sleep(0.05)
            raise ValueError("rank 1 gives up")
        _PARKED_IN[parked_in](comm)

    t0 = time.monotonic()
    with pytest.raises(RuntimeError,
                       match="rank 1 raised ValueError: rank 1 gives up"):
        run_mpi(main, 2, deadline=2.0, backend=backend)
    assert time.monotonic() - t0 < 0.5


def _give_up(comm):
    raise ValueError("rank 1 gives up")


#: what rank 1 does to end rank 0's wait
_CAUSES = {
    "failed": lambda comm: comm.kill_self(),
    "raises": _give_up,
    "revoked": lambda comm: comm.revoke(),
}

#: what rank 0 is parked in, and how "communicator revoked while ..." ends
_WAITS = {
    "recv": (lambda comm: comm.recv(1), "receive pending"),
    "irecv_wait": (lambda comm: comm.irecv(1).wait(), "receive pending"),
    "probe": (lambda comm: comm.probe(1), "probing"),
    "ssend": (_PARKED_IN["ssend"], "synchronous send pending"),
    "issend_wait": (_PARKED_IN["issend"], "synchronous send pending"),
    "ibarrier_wait": (_PARKED_IN["ibarrier"], "ibarrier pending"),
    # rank 1 never enters: rank 0 is parked on a receive of the schedule
    "collective": (lambda comm: comm.allreduce(1, SUM), "receive pending"),
    "waitany": (_PARKED_IN["waitany"], "waitany pending"),
    "alltoallv_sparse": (_PARKED_IN["alltoallv_sparse"], "waitany pending"),
}


@pytest.mark.fuzz
@pytest.mark.parametrize("seed", _RACE_SEEDS)
@pytest.mark.parametrize("cause", sorted(_CAUSES))
@pytest.mark.parametrize("parked_in", sorted(_WAITS))
def test_every_parked_wait_ends_at_once_whatever_the_cause(
        parked_in, cause, seed):
    """Wait kind × cause under jittered wake-ups: the same checks from the
    same loop, so every cell raises the right type with the right text
    within 50 ms of the cause — none sleeps to a timer, let alone to the
    15 s deadline."""
    block, doing = _WAITS[parked_in]
    if cause == "revoked":
        expect, match = RawCommRevoked, f"communicator revoked while {doing}$"
    else:
        expect, match = RawProcessFailure, r"failed: ranks \[1\]$"

    latency = _wake_latency(
        block, _CAUSES[cause], 0.03, expect, match=match,
        fuzz_seed=seed,
        # a wait ended by revocation leaves its message behind
        sanitize=False,
        # the run reports the cause, not its effect on rank 0
        run_raises="rank 1 raised ValueError" if cause == "raises" else None)
    assert latency < 0.05


@pytest.mark.parametrize("parked_in", ["waitany", "alltoallv_sparse"])
def test_a_wait_for_any_of_several_requests_does_not_spin(parked_in):
    """Parked while its peer sleeps 200 ms, a rank burns no CPU: it is woken
    by the message, not by a timer it polls on."""
    used = {}

    def main(comm):
        if comm.rank == 1:
            time.sleep(0.2)
            if parked_in == "waitany":
                comm.send("late", 0)
            else:
                SparseComm(comm).alltoallv_sparse({0: np.arange(3)})
            return
        t0 = time.thread_time()
        if parked_in == "waitany":
            raw_waitany([comm.irecv(1)])
        else:
            SparseComm(comm).alltoallv_sparse({})
        used["cpu"] = time.thread_time() - t0

    gc.disable()  # a collection would bill the suite's heap to this thread
    try:
        run_mpi(main, 2, deadline=15.0, backend="thread")
    finally:
        gc.enable()
    assert used["cpu"] <= 0.001


def test_a_rank_that_never_returns_does_not_hide_the_root_cause(
        monkeypatch):
    """Rank 0 is stuck outside any wait, so only the run bound (deadline +
    grace) ends it; the error still names rank 1's exception, with the
    stuck stacks behind it."""
    monkeypatch.setattr(thread_backend, "RUN_GRACE", 0.2)

    def main(comm):
        if comm.rank == 1:
            raise ValueError("rank 1 gives up")
        stuck_until = time.monotonic() + 2.0  # well past the run bound
        while time.monotonic() < stuck_until:
            time.sleep(0.01)

    with pytest.raises(RuntimeError,
                       match="rank 1 raised ValueError") as info:
        run_mpi(main, 2, deadline=0.3, backend="thread")
    hang = info.value.__context__
    assert isinstance(hang, RawDeadlockError)
    assert "rank-0" in hang.stacks and "in main" in hang.stacks["rank-0"]


def test_failed_ranks_listing():
    faults = FaultCampaign([KillAtCheckpoint("go", {2})])

    def main(comm):
        faults.checkpoint(comm, "go")
        import time

        deadline = time.time() + 3.0
        while not comm.failed_ranks() and time.time() < deadline:
            time.sleep(0.01)
        return comm.failed_ranks()

    res = run_mpi(main, 3, deadline=6.0, backend="thread", faults=faults)
    assert res.values[0] == (2,)
