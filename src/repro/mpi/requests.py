"""Raw non-blocking requests (analog of ``MPI_Request``).

These are the *unsafe* requests the C API hands out: they do not protect the
buffers involved.  The KaMPIng layer (:mod:`repro.core.nonblocking`) wraps
them into ownership-tracking non-blocking results.
"""

from __future__ import annotations

import threading
from typing import Any, Optional, Sequence

from repro.mpi.costmodel import Clock
from repro.mpi.errors import RawDeadlockError, RawUsageError
from repro.mpi.p2p import Envelope, Mailbox, PendingRecv, Status
from repro.mpi.waiting import Backoff


class RawRequest:
    """Base class for raw requests."""

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

    def __init__(self, env: Envelope, clock: Clock, deadline: float = 120.0,
                 fuzz=None):
        assert env.sync_gate is not None
        self._env = env
        self._clock = clock
        self._deadline = deadline
        self._fuzz = fuzz
        self._done = False

    def wait(self) -> None:
        backoff = Backoff(self._deadline, fuzz=self._fuzz)
        while not self._env.sync_gate.park(backoff.next_timeout()):
            if backoff.expired:
                raise RawDeadlockError("issend never matched a receive")
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
        return env.payload, Status(source=env.source, tag=env.tag, nbytes=env.nbytes)

    def audit_state(self) -> str:
        if self._result is not None:
            return "completed"
        if self._cancelled:
            return "cancelled"
        return "pending"

    def audit_pending_recvs(self) -> tuple[PendingRecv, ...]:
        return (self._pr,)


class CounterBarrierRequest(RawRequest):
    """Request for ``ibarrier``, backed by a machine-level arrival counter."""

    def __init__(self, barrier: "ArrivalBarrier", ticket: int, clock: Clock,
                 deadline: float = 120.0, fuzz=None):
        self._barrier = barrier
        self._ticket = ticket
        self._clock = clock
        self._deadline = deadline
        self._fuzz = fuzz
        self._done = False

    def wait(self) -> None:
        self._barrier.wait_complete(self._ticket, self._deadline,
                                    fuzz=self._fuzz)
        self._finish()

    def test(self) -> tuple[bool, Any]:
        if self._done:
            return True, None
        if self._barrier.is_complete(self._ticket):
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
        if self._done or self._barrier.is_complete(self._ticket):
            return "completed"
        return "pending"


class ArrivalBarrier:
    """Shared state for non-blocking barriers on one communicator.

    Each barrier *epoch* completes when all ``size`` members have arrived.
    Completion time in virtual time is the latest arrival clock plus a
    logarithmic dissemination term.
    """

    def __init__(self, size: int, alpha: float):
        self._size = size
        self._alpha = alpha
        self._cond = threading.Condition()
        self._arrivals: dict[int, int] = {}
        self._max_clock: dict[int, float] = {}
        self._complete_time: dict[int, float] = {}

    def arrive(self, epoch: int, clock_now: float) -> int:
        """Record arrival in ``epoch``; returns the epoch as the wait ticket."""
        with self._cond:
            n = self._arrivals.get(epoch, 0) + 1
            self._arrivals[epoch] = n
            self._max_clock[epoch] = max(self._max_clock.get(epoch, 0.0), clock_now)
            if n == self._size:
                rounds = max((self._size - 1).bit_length(), 1)
                self._complete_time[epoch] = (
                    self._max_clock[epoch] + rounds * self._alpha
                )
                self._cond.notify_all()
            return epoch

    def is_complete(self, epoch: int) -> bool:
        with self._cond:
            return epoch in self._complete_time

    def completion_time(self, epoch: int) -> float:
        with self._cond:
            return self._complete_time[epoch]

    def wait_complete(self, epoch: int, deadline: float, fuzz=None) -> None:
        backoff = Backoff(deadline, fuzz=fuzz)
        with self._cond:
            while epoch not in self._complete_time:
                self._cond.wait(timeout=backoff.next_timeout())
                if epoch not in self._complete_time and backoff.expired:
                    raise RawDeadlockError("ibarrier never completed")


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


def waitany(requests: Sequence[RawRequest], poll_interval: float = 0.001,
            deadline: float = 120.0, fuzz=None) -> tuple[int, Any]:
    """Complete one request, returning ``(index, value)`` (``MPI_Waitany``).

    ``test()`` drives progress (progress-on-test semantics), so this is a
    genuine poll loop, with the deadline accounted on real elapsed time.  Its
    step stays small: the polled requests may be state machines that only
    advance when tested.
    """
    import time

    backoff = Backoff(deadline, step=poll_interval, fuzz=fuzz)
    while True:
        for i, r in enumerate(requests):
            done, value = r.test()
            if done:
                return i, value
        if backoff.expired:
            raise RawDeadlockError("waitany exceeded the deadlock deadline")
        time.sleep(backoff.next_timeout())
