"""Raw non-blocking requests (analog of ``MPI_Request``).

These are the *unsafe* requests the C API hands out: they do not protect the
buffers involved.  The KaMPIng layer (:mod:`repro.core.nonblocking`) wraps
them into ownership-tracking non-blocking results.
"""

from __future__ import annotations

from _thread import allocate_lock
from typing import Any, Collection, Hashable, Optional, Sequence

from repro.mpi.costmodel import Clock
from repro.mpi.errors import RawUsageError
from repro.mpi.p2p import Envelope, Mailbox, PendingRecv, Status
from repro.mpi.waiting import AnyGate, Gate, WaitContext


class RawRequest:
    """Base class for raw requests."""

    #: the wait context of the communicator this request waits on (``None``:
    #: it completes on its own); :func:`waitany` parks in it
    waits: Optional[WaitContext] = None

    def wait(self) -> Any:
        raise NotImplementedError

    def test(self) -> tuple[bool, Any]:
        """Return ``(done, value)``; ``value`` is only meaningful when done."""
        raise NotImplementedError

    def blocked_on(self) -> tuple[Gate, Optional[Collection[int]]]:
        """Once ``test()`` found it not done: the gate whose opening lets it
        progress, and the ranks whose failure means it never will (``None``:
        any rank, as for a wildcard receive)."""
        raise NotImplementedError  # a request that completes at once

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
        self.waits.park(*self.blocked_on(), "synchronous send pending",
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

    def blocked_on(self) -> tuple[Gate, Collection[int]]:
        return self._env.sync_gate, (self._dest,)

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
        self.waits = mailbox.waits

    def wait(self) -> tuple[Any, Status]:
        if self._result is None:  # Mailbox.wait refuses a cancelled one
            env = self._pr.envelope
            if env is None:
                env = self._mailbox.wait(self._pr)
            self._result = self._consume(env)
        return self._result

    def test(self) -> tuple[bool, Any]:
        if self._result is not None:
            return True, self._result
        if self._cancelled:
            # a successfully cancelled request is complete with no value
            return True, None
        env = self._pr.envelope  # stays ``None`` on a cancelled receive
        if env is None:
            return False, None
        self._result = self._consume(env)
        return True, self._result

    def cancel(self) -> bool:
        """Cancel the posted receive (analog of ``MPI_Cancel``): ``True``
        if that took effect, ``False`` if it had matched already — a matched
        receive must complete, so ``wait()``/``test()`` still consume it."""
        if self._result is not None or self._cancelled:
            return self._cancelled
        if not self._mailbox.cancel(self._pr):
            return False
        self._cancelled = True
        return True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def blocked_on(self) -> tuple[Gate, Optional[Collection[int]]]:
        source = self._pr.source
        return self._pr, None if source < 0 else (source,)

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
        self._gate = barrier.gate(ticket)

    def wait(self) -> None:
        self.waits.park(*self.blocked_on(), "ibarrier pending",
                        "ibarrier never completed")
        self._finish()

    def test(self) -> tuple[bool, Any]:
        if self._gate.opened:
            self._finish()
            return True, None
        return False, None

    def _finish(self) -> None:
        if not self._done:
            self._clock.wait_until(self._barrier.complete_time[self._ticket])
            self._clock.charge_overhead()
            self._done = True

    def blocked_on(self) -> tuple[Gate, Collection[int]]:
        return self._gate, range(len(self.waits.members))

    def audit_state(self) -> str:
        # a fully-arrived barrier holds no per-rank resources even if this
        # rank never waited; only a still-incomplete epoch is a leak
        return "completed" if self._gate.opened else "pending"


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
        #: when each completed epoch did, in virtual time (set before the
        #: epoch's gates open, so read without the lock once one has)
        self.complete_time: dict[int, float] = {}
        #: per incomplete epoch, the gates of the requests waiting for it
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
            self.complete_time[epoch] = t
            for gate in self._parked.pop(epoch, ()):
                gate.open()

    def gate(self, epoch: int) -> Gate:
        """A gate the completion of ``epoch`` opens (open if it has)."""
        gate = Gate()
        with self._lock:
            if epoch in self.complete_time:
                gate.open()
            else:
                self._parked.setdefault(epoch, []).append(gate)
        return gate


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

    Tests each (``test()`` drives progress); if none is done, parks once on
    all their gates, with the union of their peers.  The requests must wait
    on one communicator."""
    while True:
        gates, peers = [], set()
        for i, r in enumerate(requests):
            done, value = r.test()
            if done:
                return i, value
            gate, on = r.blocked_on()
            gates.append(gate)
            peers = None if on is None or peers is None else peers.union(on)
        waits = {r.waits for r in requests}
        if len(waits) != 1:
            raise RawUsageError("waitany needs requests of one communicator")
        waits.pop().park(AnyGate(gates), peers, "waitany pending",
                         "waitany exceeded the {deadline:.0f}s deadlock "
                         "deadline")
