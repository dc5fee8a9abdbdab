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

Both queues and the parked probes live under one raw ``_thread`` lock.  The
mailbox only matches: a receive or a probe that finds nothing gets a gate,
which the matching delivery opens; *waiting* on it — deadline, failed source,
revocation — is :meth:`~repro.mpi.waiting.WaitContext.park`.
"""

from __future__ import annotations

from _thread import allocate_lock
from dataclasses import dataclass
from typing import Any, Optional

from repro.mpi.constants import ANY_SOURCE, ANY_TAG
from repro.mpi.datatypes import snapshot
from repro.mpi.errors import RawUsageError
from repro.mpi.waiting import Gate, WaitContext

#: the deadline texts of a mailbox's two waits (``{0}``: the entry)
_RECV_STUCK = ("recv(source={0.source}, tag={0.tag}) exceeded the "
               "{deadline:.0f}s deadlock deadline")
_PROBE_STUCK = _RECV_STUCK.replace("recv", "probe")


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
    """A posted receive — or a parked probe — waiting for a matching envelope."""

    __slots__ = ("source", "tag", "post_clock", "envelope", "gate",
                 "cancelled", "origin")

    def __init__(self, source: int, tag: int, post_clock: float):
        self.source = source
        self.tag = tag
        self.post_clock = post_clock
        self.envelope: Optional[Envelope] = None
        #: what a queued receive parks on (``None`` if an envelope was there
        #: when it was posted); opened under the mailbox's lock
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

    def __init__(self, waits: Optional[WaitContext] = None):
        self._lock = allocate_lock()
        self._posted: list[PendingRecv] = []
        self._unexpected: list[Envelope] = []
        #: probes parked until an envelope they match is queued
        self._probes: list[PendingRecv] = []
        #: how this endpoint's receives and probes wait; a bare mailbox's
        #: wait with a deadline and nothing else
        self.waits = waits if waits is not None else WaitContext()

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
        fuzz = self.waits.fuzz
        if fuzz is not None:  # perturbs delivery timing, never virtual time
            fuzz.pause("deposit")
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
            if self._probes:  # parked probes only ever look at this queue
                for probe in [p for p in self._probes
                              if env.matches(p.source, p.tag)]:
                    self._probes.remove(probe)
                    probe.envelope = env
                    probe.gate.open()

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

    def wait(self, pr: PendingRecv, doing: str = "receive pending",
             stuck: str = _RECV_STUCK) -> Envelope:
        """Block until the posted receive (or parked probe) has its envelope.

        The source's failure (any rank's, for a wildcard), revocation and the
        deadline end it as :meth:`WaitContext.park` says, each first
        cancelling the receive — or, if an envelope matched it meanwhile
        (``MPI_Cancel`` cannot undo a match), delivering that instead."""
        env = pr.envelope
        if env is not None:
            return env  # matched by post() or since: nothing to wait for
        source = pr.source  # any failure may leave a wildcard recv stuck
        self.waits.park(pr.gate, None if source < 0 else (source,), doing,
                        stuck, self.cancel, pr)
        if pr.envelope is None:
            # only reachable by waiting on a receive cancelled elsewhere
            raise RawUsageError("wait() on a cancelled receive")
        return pr.envelope

    def cancel(self, pr: PendingRecv) -> bool:
        """Try to cancel a posted receive (``MPI_Cancel`` semantics).

        ``True``: it was still unmatched, and is now out of its queue and
        marked cancelled.  ``False``: an envelope already matched it, which the
        caller must consume — dropping it would lose the message and, for a
        synchronous send, leave the sender believing it was received."""
        with self._lock:
            if pr.envelope is not None:
                return False
            pr.cancelled = True
            for queue in (self._posted, self._probes):
                if pr in queue:
                    queue.remove(pr)
            pr.gate.open()  # wake any waiter; it observes the cancellation
            return True

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

        A probe that finds nothing parks an entry which the first matching
        envelope to be *queued* completes, and waits on it like a receive."""
        probe = PendingRecv(source, tag, 0.0)
        with self._lock:
            for env in self._unexpected:
                if env.matches(source, tag):
                    return env
            probe.gate = Gate()
            self._probes.append(probe)
        return self.wait(probe, "probing", _PROBE_STUCK)

    def audit_snapshot(self) -> tuple[tuple[PendingRecv, ...], tuple[Envelope, ...]]:
        """Consistent snapshot of both queues (MPIsan's finalize-time sweep)."""
        with self._lock:
            return tuple(self._posted), tuple(self._unexpected)
