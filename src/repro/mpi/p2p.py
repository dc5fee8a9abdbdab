"""Point-to-point matching engine.

Implements the classic MPI receive-side model: each (communicator, rank) pair
owns a :class:`Mailbox` with a *posted-receive queue* and an *unexpected
message queue*.  Incoming envelopes first try to match the oldest compatible
posted receive; receives first try to match the oldest compatible unexpected
envelope.  This preserves MPI's non-overtaking guarantee: messages from the
same sender with compatible tags are matched in send order.

Synchronous sends (``ssend``/``issend``) carry a match gate; the sender only
completes once the receiver has matched the message, which is what the NBX
sparse all-to-all algorithm (plugins) relies on for its termination protocol.

Both queues live under one raw ``_thread`` lock.  Only a receive that has to
queue gets a gate to park on; a blocked probe parks on the mailbox's condition
(over the same lock), which a delivery notifies only while a probe is parked.
:meth:`Mailbox.interrupt` wakes both to re-run their checks
(:mod:`repro.mpi.waiting`).
"""

from __future__ import annotations

import threading
from _thread import allocate_lock
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.mpi.constants import ANY_SOURCE, ANY_TAG
from repro.mpi.datatypes import snapshot
from repro.mpi.errors import (
    RawCommRevoked,
    RawDeadlockError,
    RawProcessFailure,
    RawUsageError,
)
from repro.mpi.waiting import Backoff, Gate


@dataclass(slots=True)
class Status:
    """Receive status (analog of ``MPI_Status``)."""

    source: int
    tag: int
    nbytes: int

    def count(self, itemsize: int = 1) -> int:
        """Number of items of ``itemsize`` bytes in the message (``MPI_Get_count``)."""
        return self.nbytes // max(itemsize, 1)


@dataclass(slots=True)
class Envelope:
    """A message in flight (built positionally, once per message)."""

    source: int
    tag: int
    payload: Any
    nbytes: int
    #: virtual time at which the message is available at the receiver
    arrival_time: float
    #: opened at the match when a synchronous sender must learn about it
    sync_gate: Optional[Gate] = None
    #: receiver-side clock at match time (read by synchronous senders)
    match_clock: float = 0.0
    #: sender-side creation backtrace (sanitized runs only; see MPIsan)
    origin: tuple = ()

    def matches(self, source: int, tag: int) -> bool:
        """The matching rule (``Mailbox.deliver`` / ``post`` inline it)."""
        return (source == ANY_SOURCE or source == self.source) and (
            tag == ANY_TAG or tag == self.tag
        )


class PendingRecv:
    """A posted receive waiting for a matching envelope."""

    __slots__ = ("source", "tag", "post_clock", "envelope", "gate",
                 "cancelled", "origin")

    def __init__(self, source: int, tag: int, post_clock: float):
        self.source = source
        self.tag = tag
        self.post_clock = post_clock
        self.envelope: Optional[Envelope] = None
        #: what a queued receive parks on (``None`` if an envelope was there
        #: when it was posted); opened and interrupted under the mailbox's lock
        self.gate: Optional[Gate] = None
        self.cancelled = False
        #: creation backtrace (sanitized runs only; see MPIsan)
        self.origin: tuple = ()

    def complete(self, env: Envelope) -> None:
        """The match, under the mailbox's lock; tells a synchronous sender."""
        self.envelope = env
        if env.sync_gate is not None:
            env.match_clock = max(env.arrival_time, self.post_clock)
            env.sync_gate.open()


class Mailbox:
    """Matching queues for one (communicator, rank) endpoint."""

    def __init__(self, deadline_seconds: float = 120.0):
        self._lock = allocate_lock()
        #: where probes park, over the same lock
        self._cond = threading.Condition(self._lock)
        #: probes parked on ``_cond`` right now (counted under the lock): a
        #: delivery pays for ``notify_all`` only while there is one
        self._probing = 0
        self._posted: list[PendingRecv] = []
        self._unexpected: list[Envelope] = []
        self._deadline = deadline_seconds
        #: callable returning the set of currently-failed peer world ranks
        self.failure_probe: Callable[[], frozenset[int]] = frozenset
        #: maps communicator-local source ranks to world ranks for failure checks
        self.source_to_world: Callable[[int], int] = lambda r: r
        #: callable reporting whether the owning communicator was revoked;
        #: blocked operations on a revoked communicator abort (ULFM semantics)
        self.revoke_probe: Callable[[], bool] = lambda: False
        #: schedule fuzzer of the owning machine (``None`` outside fuzzed runs);
        #: perturbs delivery timing and poll wakeups, never virtual time
        self.fuzz = None

    # -- sending ----------------------------------------------------------

    def deposit(self, env: Envelope) -> None:
        """The sender's entry, one call per message: this mailbox shares the
        sender's memory, so buffered-send semantics need a private copy of
        the payload (the caller may mutate its buffer once the send returns).
        """
        env.payload = snapshot(env.payload)
        self.deliver(env)

    def deliver(self, env: Envelope) -> None:
        """Match the oldest compatible posted receive, else queue the envelope.

        Entered directly only with a payload nobody else references (the
        process backend's pump, holding a freshly unpickled one).
        """
        if self.fuzz is not None:
            self.fuzz.pause("deposit")
        source, tag = env.source, env.tag
        with self._lock:
            for i, pr in enumerate(self._posted):
                if (pr.source == source or pr.source == ANY_SOURCE) and (
                        pr.tag == tag or pr.tag == ANY_TAG):
                    del self._posted[i]
                    pr.complete(env)
                    pr.gate.open()
                    return
            self._unexpected.append(env)
            if self._probing:  # a probe only ever looks at this queue
                self._cond.notify_all()

    # -- receiving --------------------------------------------------------

    def post(self, source: int, tag: int, post_clock: float) -> PendingRecv:
        """Post a receive; matches an unexpected envelope immediately if present."""
        pr = PendingRecv(source, tag, post_clock)
        with self._lock:
            for i, env in enumerate(self._unexpected):
                if (source == env.source or source == ANY_SOURCE) and (
                        tag == env.tag or tag == ANY_TAG):
                    del self._unexpected[i]
                    pr.complete(env)
                    return pr
            pr.gate = Gate()
            self._posted.append(pr)
        return pr

    def wait(self, pr: PendingRecv) -> Envelope:
        """Block until the posted receive completes.

        Raises :class:`RawProcessFailure` if the awaited source dies while the
        receive is pending, and :class:`RawDeadlockError` if the machine's
        deadlock deadline elapses.  On every error path the receive is first
        cancelled; if an envelope matched it in the meantime the receive has
        completed (``MPI_Cancel`` cannot undo a match) and the envelope is
        delivered instead of raising.
        """
        if pr.envelope is not None:
            return pr.envelope  # matched by post() or since: nothing to wait for
        backoff = Backoff(self._deadline, fuzz=self.fuzz)
        while not pr.gate.park(backoff.next_timeout()):
            # interrupted or timed out: the same checks either way
            if self.revoke_probe():
                if not self.cancel(pr):
                    break  # matched concurrently: deliver, don't drop
                raise RawCommRevoked("communicator revoked while receive pending")
            failed = self.failure_probe()
            if failed and self._source_failed(pr, failed):
                if not self.cancel(pr):
                    break
                raise RawProcessFailure(failed)
            if backoff.expired:
                if not self.cancel(pr):
                    break
                raise RawDeadlockError(
                    f"recv(source={pr.source}, tag={pr.tag}) exceeded the "
                    f"{self._deadline:.0f}s deadlock deadline"
                )
        if pr.envelope is None:
            # only reachable by waiting on a receive cancelled elsewhere
            raise RawUsageError("wait() on a cancelled receive")
        return pr.envelope

    def _source_failed(self, pr: PendingRecv, failed: frozenset[int]) -> bool:
        if pr.source == ANY_SOURCE:
            return True  # any failure may leave a wildcard recv stuck: report it
        return self.source_to_world(pr.source) in failed

    def cancel(self, pr: PendingRecv) -> bool:
        """Try to cancel a posted receive (``MPI_Cancel`` semantics).

        Returns ``True`` when the receive was still unmatched: it is removed
        from the posted queue and marked cancelled.  Returns ``False`` when an
        envelope already matched it — a matched receive must complete
        normally, so the caller has to consume ``pr.envelope`` (via ``wait``/
        ``test``) instead of treating the operation as cancelled.  The
        previous behaviour (cancel unconditionally) silently dropped the
        matched message and, for synchronous sends, left the sender convinced
        its message had been received.
        """
        with self._lock:
            if pr.envelope is not None:
                return False
            pr.cancelled = True
            try:
                self._posted.remove(pr)
            except ValueError:
                pass
            pr.gate.open()  # wake any waiter; it observes the cancellation
            return True

    def test(self, pr: PendingRecv) -> Optional[Envelope]:
        """Non-blocking completion check for a posted receive."""
        return pr.envelope  # stays ``None`` on a cancelled receive

    # -- probing ----------------------------------------------------------

    def iprobe(self, source: int, tag: int) -> Optional[Envelope]:
        """Check for a matching unexpected message without consuming it."""
        with self._lock:
            for env in self._unexpected:
                if env.matches(source, tag):
                    return env
        return None

    def probe(self, source: int, tag: int) -> Envelope:
        """Block until a matching message is available; do not consume it.

        Failure, revocation, and deadline checks run on every wakeup: a
        notified-but-unmatched wakeup (a message for a different receive)
        must not stall the deadline clock, which accounts real elapsed time.
        """
        backoff = Backoff(self._deadline, fuzz=self.fuzz)
        while True:
            with self._lock:
                for env in self._unexpected:
                    if env.matches(source, tag):
                        return env
                # counted before the wait gives the lock up, so no delivery
                # can queue an envelope and skip the notification in between
                self._probing += 1
                try:
                    self._cond.wait(timeout=backoff.next_timeout())
                finally:
                    self._probing -= 1
            if self.revoke_probe():
                raise RawCommRevoked("communicator revoked while probing")
            failed = self.failure_probe()
            if failed and (
                source == ANY_SOURCE or self.source_to_world(source) in failed
            ):
                raise RawProcessFailure(failed)
            if backoff.expired:
                raise RawDeadlockError(
                    f"probe(source={source}, tag={tag}) exceeded the "
                    f"{self._deadline:.0f}s deadlock deadline"
                )

    def interrupt(self) -> None:
        """Wake every parked receive and probe without completing any: what
        their checks look at changed (a rank failed, the communicator was
        revoked)."""
        with self._lock:
            for pr in self._posted:
                pr.gate.interrupt()
            self._cond.notify_all()

    def audit_snapshot(self) -> tuple[tuple[PendingRecv, ...], tuple[Envelope, ...]]:
        """Consistent snapshot of both queues (MPIsan's finalize-time sweep)."""
        with self._lock:
            return tuple(self._posted), tuple(self._unexpected)
