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
mailbox only matches: a receive or a probe that finds nothing is queued as
its own gate, which the matching delivery opens; *waiting* on it — deadline,
failed source, revocation — is :meth:`~repro.mpi.waiting.WaitContext.park`.
"""

from __future__ import annotations

from _thread import allocate_lock
from dataclasses import dataclass
from typing import Any, Optional

from numpy import ndarray

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
        """The matching rule (inlined by ``deposit`` / ``post``): ANY_TAG
        never matches a collective schedule's (negative) tag."""
        return (source == ANY_SOURCE or source == self.source) and (
            tag == self.tag or tag == ANY_TAG and self.tag >= 0
        )


class PendingRecv(Gate):
    """A posted receive — or a parked probe — and the gate its waiter parks on.

    Built matched (``envelope`` given: open, with no lock, never parked on) or
    queued (closed, with its own lock); a queued one is completed by the
    delivery that matches it, under the mailbox's lock, or opened cancelled.
    """

    __slots__ = ("source", "tag", "post_clock", "envelope", "cancelled",
                 "origin")

    def __init__(self, source: int, tag: int, post_clock: float,
                 envelope: Optional[Envelope] = None):
        self.source = source
        self.tag = tag
        self.post_clock = post_clock
        self.envelope = envelope
        self.cancelled = False
        #: creation backtrace (sanitized runs only; see MPIsan)
        self.origin: tuple = ()
        if envelope is None:
            Gate.__init__(self)
        else:
            self.opened = True


def _tell_sender(env: Envelope, post_clock: float) -> None:
    """A synchronous send was matched by a receive posted at ``post_clock``."""
    env.match_clock = max(env.arrival_time, post_clock)
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

    def deposit(self, env: Envelope, fresh: bool = False) -> None:
        """Match the oldest compatible posted receive, else queue the envelope.

        One call per message.  This mailbox shares the sender's memory, so
        buffered-send semantics need a private copy of the payload (the caller
        may mutate its buffer once the send returns) — unless it is ``fresh``:
        referenced by nobody else, as what the process backend's pump has
        just read off its pipe.
        """
        if not fresh:
            payload = env.payload
            env.payload = (payload.copy(order="A") if type(payload) is ndarray
                           else snapshot(payload))
        fuzz = self.waits.fuzz
        if fuzz is not None:  # perturbs delivery timing, never virtual time
            fuzz.pause("deposit")
        source, tag = env.source, env.tag
        with self._lock:
            posted = self._posted
            if posted:
                for i, pr in enumerate(posted):
                    if (pr.source == source or pr.source == ANY_SOURCE) and (
                            pr.tag == tag or pr.tag == ANY_TAG and tag >= 0):
                        del posted[i]
                        if env.sync_gate is not None:
                            _tell_sender(env, pr.post_clock)
                        pr.envelope = env
                        # Gate.open, without its frame per message
                        pr.opened = True
                        lock = pr._lock
                        if lock.locked():
                            try:
                                lock.release()
                            except RuntimeError:
                                pass
                        return
            self._unexpected.append(env)
            if self._probes:  # parked probes only ever look at this queue
                for probe in [p for p in self._probes
                              if env.matches(p.source, p.tag)]:
                    self._probes.remove(probe)
                    probe.envelope = env
                    probe.open()

    # -- receiving --------------------------------------------------------

    def post(self, source: int, tag: int, post_clock: float) -> PendingRecv:
        """Post a receive: matched at once by the oldest compatible unexpected
        envelope if there is one, else queued with a gate to park on."""
        with self._lock:
            unexpected = self._unexpected
            if unexpected:
                for i, env in enumerate(unexpected):
                    if (source == env.source or source == ANY_SOURCE) and (
                            tag == env.tag or tag == ANY_TAG and env.tag >= 0):
                        del unexpected[i]
                        if env.sync_gate is not None:
                            _tell_sender(env, post_clock)
                        return PendingRecv(source, tag, post_clock, env)
            pr = PendingRecv(source, tag, post_clock)
            self._posted.append(pr)
        return pr

    def wait(self, pr: PendingRecv, doing: str = "receive pending",
             stuck: str = _RECV_STUCK) -> Envelope:
        """Block until the posted receive (or parked probe) has its envelope.

        The source's failure (any rank's, for a wildcard), revocation and the
        deadline end it as :meth:`WaitContext.park` says, each first
        cancelling the receive — or, if an envelope matched it meanwhile
        (``MPI_Cancel`` cannot undo a match), delivering that instead."""
        source = pr.source  # any failure may leave a wildcard recv stuck
        self.waits.park(pr, None if source < 0 else (source,), doing, stuck,
                        self.cancel, pr)
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
            pr.open()  # wake any waiter; it observes the cancellation
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
        with self._lock:
            for env in self._unexpected:
                if env.matches(source, tag):
                    return env
            probe = PendingRecv(source, tag, 0.0)
            self._probes.append(probe)
        return self.wait(probe, "probing", _PROBE_STUCK)

    def audit_snapshot(self) -> tuple[tuple[PendingRecv, ...], tuple[Envelope, ...]]:
        """Consistent snapshot of both queues (MPIsan's finalize-time sweep)."""
        with self._lock:
            return tuple(self._posted), tuple(self._unexpected)
