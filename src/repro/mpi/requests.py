"""Raw non-blocking requests (analog of ``MPI_Request``).

These are the *unsafe* requests the C API hands out: they do not protect the
buffers involved.  The KaMPIng layer (:mod:`repro.core.nonblocking`) wraps
them into ownership-tracking non-blocking results.
"""

from __future__ import annotations

import time
from _thread import allocate_lock
from typing import Any, Hashable, Optional, Sequence

from repro.mpi.costmodel import Clock
from repro.mpi.errors import RawDeadlockError, RawUsageError
from repro.mpi.p2p import Envelope, Mailbox, PendingRecv, Status
from repro.mpi.waiting import Backoff, Gate, WaitContext


class RawRequest:
    """Base class for raw requests."""

    #: the wait context of the communicator this request waits on (``None``:
    #: it completes on its own); :func:`waitany` takes its deadline and
    #: schedule fuzzer from here
    waits: Optional[WaitContext] = None

    def wait(self) -> Any:
        raise NotImplementedError

    def test(self) -> tuple[bool, Any]:
        """Return ``(done, value)``; ``value`` is only meaningful when done."""
        raise NotImplementedError

    @property
    def completed(self) -> bool:
        done, _ = self.test()
        return done

    # -- MPIsan hooks (side-effect free; see repro.mpi.sanitizer) ----------

    def audit_state(self) -> str:
        """Lifecycle state for the resource auditor, observed without driving
        progress: ``"completed"``, ``"cancelled"``, ``"pending"``, or
        ``"unmatched"`` (synchronous sends no receive ever matched)."""
        return "completed"

    def audit_pending_recvs(self) -> tuple[PendingRecv, ...]:
        """Posted receives owned by this request (so the auditor attributes
        them to the request instead of reporting them twice)."""
        return ()


class CompletedRequest(RawRequest):
    """A request that completed at initiation time (buffered sends)."""

    __slots__ = ("_value",)

    def __init__(self, value: Any = None):
        self._value = value

    def wait(self) -> Any:
        return self._value

    def test(self) -> tuple[bool, Any]:
        return True, self._value


class SyncSendRequest(RawRequest):
    """Request for ``issend``: completes once the receiver matched the message."""

    def __init__(self, env: Envelope, clock: Clock, waits: WaitContext,
                 dest: int):
        assert env.sync_gate is not None
        self._env = env
        self._clock = clock
        self.waits = waits
        self._dest = dest
        self._done = False

    def wait(self) -> None:
        self.waits.park(self._env.sync_gate, (self._dest,),
                        "synchronous send pending",
                        "issend never matched a receive")
        self._finish()

    def test(self) -> tuple[bool, Any]:
        if self._env.sync_gate.opened:
            self._finish()
            return True, None
        return False, None

    def _finish(self) -> None:
        if not self._done:
            self._clock.wait_until(self._env.match_clock)
            self._done = True

    def audit_state(self) -> str:
        if self._done:
            return "completed"
        if self._env.sync_gate.opened:
            return "pending"  # matched, but the sender never waited/tested
        return "unmatched"


class RecvRequest(RawRequest):
    """Request for ``irecv``."""

    def __init__(self, mailbox: Mailbox, pr: PendingRecv, clock: Clock):
        self._mailbox = mailbox
        self._pr = pr
        self._clock = clock
        self._result: Optional[tuple[Any, Status]] = None
        self._cancelled = False

    @property
    def waits(self) -> WaitContext:
        return self._mailbox.waits

    def wait(self) -> tuple[Any, Status]:
        if self._result is None:
            if self._cancelled:
                raise RawUsageError("wait() on a cancelled receive")
            env = self._mailbox.wait(self._pr)
            self._result = self._consume(env)
        return self._result

    def test(self) -> tuple[bool, Any]:
        if self._result is not None:
            return True, self._result
        if self._cancelled:
            # a successfully cancelled request is complete with no value
            return True, None
        env = self._mailbox.test(self._pr)
        if env is None:
            return False, None
        self._result = self._consume(env)
        return True, self._result

    def cancel(self) -> bool:
        """Cancel the posted receive (analog of ``MPI_Cancel``).

        Returns ``True`` when the cancellation took effect.  Returns
        ``False`` when the receive already matched an envelope — per MPI
        semantics a matched receive must complete, so the caller still has
        to ``wait()``/``test()`` to consume the message (which would
        otherwise be silently dropped).
        """
        if self._result is not None or self._cancelled:
            return self._cancelled
        if not self._mailbox.cancel(self._pr):
            return False
        self._cancelled = True
        return True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def _consume(self, env: Envelope) -> tuple[Any, Status]:
        self._clock.wait_until(env.arrival_time)
        self._clock.charge_overhead()
        return env.payload, Status(env.source, env.tag, env.nbytes)

    def audit_state(self) -> str:
        if self._result is not None:
            return "completed"
        if self._cancelled:
            return "cancelled"
        return "pending"

    def audit_pending_recvs(self) -> tuple[PendingRecv, ...]:
        return (self._pr,)


class CounterBarrierRequest(RawRequest):
    """Request for ``ibarrier``, backed by the communicator's arrival counter."""

    def __init__(self, barrier: "ArrivalBarrier", ticket: int, clock: Clock):
        self._barrier = barrier
        self._ticket = ticket
        self._clock = clock
        self._done = False
        self.waits = barrier._waits

    def wait(self) -> None:
        self._barrier.wait_complete(self._ticket)
        self._finish()

    def test(self) -> tuple[bool, Any]:
        if self._done:
            return True, None
        if self._barrier.completion_time(self._ticket) is not None:
            self._finish()
            return True, None
        return False, None

    def _finish(self) -> None:
        if not self._done:
            self._clock.wait_until(self._barrier.completion_time(self._ticket))
            self._clock.charge_overhead()
            self._done = True

    def audit_state(self) -> str:
        # a fully-arrived barrier holds no per-rank resources even if this
        # rank never waited; only a still-incomplete epoch is a leak
        if self._done or self._barrier.completion_time(self._ticket) is not None:
            return "completed"
        return "pending"


class ArrivalBarrier:
    """Arrival counter for the non-blocking barriers of one communicator.

    Each barrier *epoch* completes when all members have arrived.  Completion
    time in virtual time is the latest arrival clock plus a logarithmic
    dissemination term.

    Arrivals are counted where the member with the lowest world rank lives:
    with no transport that is here, for everyone.  A member living elsewhere
    sends ``("bar", comm_id, epoch, clock)`` there, which the transport hands
    to :meth:`record`, and gets ``("bardone", comm_id, epoch, t)`` back
    (:meth:`complete`).
    """

    def __init__(self, comm_id: Hashable, machine, waits: WaitContext):
        self._comm_id = comm_id
        self._members = members = waits.members
        self._machine = machine
        self._waits = waits
        transport = machine.transport
        #: world rank that counts the arrivals when that is not done here
        self._counted_at: Optional[int] = (
            None if transport is None or transport.rank == members[0]
            else members[0])
        self._lock = allocate_lock()
        self._arrivals: dict[int, int] = {}
        self._max_clock: dict[int, float] = {}
        self._complete_time: dict[int, float] = {}
        #: per incomplete epoch, the gates of the waits parked for it
        self._parked: dict[int, list[Gate]] = {}

    def arrive(self, epoch: int, clock_now: float) -> int:
        """Record arrival in ``epoch``; returns the epoch as the wait ticket."""
        if self._counted_at is None:
            self.record(epoch, clock_now)
        else:
            self._machine.transport.send(
                self._counted_at, ("bar", self._comm_id, epoch, clock_now))
        return epoch

    def record(self, epoch: int, clock_now: float) -> None:
        """Count one arrival; the last one completes the epoch."""
        size = len(self._members)
        with self._lock:
            n = self._arrivals.get(epoch, 0) + 1
            self._arrivals[epoch] = n
            self._max_clock[epoch] = max(self._max_clock.get(epoch, 0.0), clock_now)
            if n < size:
                return
            rounds = max((size - 1).bit_length(), 1)
            t = self._max_clock[epoch] + rounds * self._machine.cost_model.alpha
        self.complete(epoch, t)
        transport = self._machine.transport
        if transport is not None:
            for world in self._members:
                if world != transport.rank:
                    transport.send(world, ("bardone", self._comm_id, epoch, t))

    def complete(self, epoch: int, t: float) -> None:
        """``epoch`` completed at ``t`` (counted here, or the counting side
        said so): let the waits parked for it through."""
        with self._lock:
            self._complete_time[epoch] = t
            for gate in self._parked.pop(epoch, ()):
                gate.open()

    def completion_time(self, epoch: int) -> Optional[float]:
        """When ``epoch`` completed, in virtual time; ``None`` until it has."""
        with self._lock:
            return self._complete_time.get(epoch)

    def wait_complete(self, epoch: int) -> None:
        with self._lock:
            if epoch in self._complete_time:
                return
            gate = Gate()
            self._parked.setdefault(epoch, []).append(gate)
        self._waits.park(gate, range(len(self._members)), "ibarrier pending",
                         "ibarrier never completed")


def waitall(requests: Sequence[RawRequest]) -> list[Any]:
    """Complete all requests, returning their values in order (``MPI_Waitall``)."""
    return [r.wait() for r in requests]


def testall(requests: Sequence[RawRequest]) -> tuple[bool, Optional[list[Any]]]:
    """``MPI_Testall``: all-or-nothing completion check."""
    results = []
    for r in requests:
        done, value = r.test()
        if not done:
            return False, None
        results.append(value)
    return True, results


def waitany(requests: Sequence[RawRequest]) -> tuple[int, Any]:
    """Complete one request, returning ``(index, value)`` (``MPI_Waitany``).

    ``test()`` drives progress (progress-on-test semantics), so this is a
    genuine poll loop, under the deadline and schedule fuzzer of the
    requests' wait context, with the deadline accounted on real elapsed
    time.  Its step stays small: the polled requests may be state machines
    that only advance when tested.
    """
    waits = next((r.waits for r in requests if r.waits is not None),
                 None) or WaitContext()
    backoff = Backoff(waits.deadline, step=0.001, fuzz=waits.fuzz)
    while True:
        for i, r in enumerate(requests):
            done, value = r.test()
            if done:
                return i, value
        if backoff.expired:
            raise RawDeadlockError("waitany exceeded the deadlock deadline")
        time.sleep(backoff.next_timeout())
