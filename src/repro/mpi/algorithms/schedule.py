"""Schedule steps, the one driver that executes them, and the co-run.

A collective algorithm is a generator of ``(p, rank, *collective args)`` that
yields the steps below and returns the collective's result; it never sees a
communicator.  :class:`Run` is the only code that turns steps into tags,
mailbox traffic, clock charges and fault hooks — for the blocking collectives
(``Run(...).wait()``) and the non-blocking ones (the same object, started and
handed to the caller as its request).  The tests' co-run (``tests/oracles.py``)
executes the p generators of one schedule on one thread over in-memory
channels: the oracle every schedule is checked against (matched sends, no
deadlock, each rank's result).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

from repro.mpi.p2p import PendingRecv
from repro.mpi.requests import RawRequest


@dataclass(slots=True)
class Tag:
    """Open a phase: draw the next collective tag under ``code``; every
    following :class:`Send`/:class:`Recv` uses it until the next ``Tag``."""
    code: int


@dataclass(slots=True)
class Send:
    """Buffered send (``packed``: at the derived-datatype transfer rate)."""
    peer: int
    payload: Any
    packed: bool = False


@dataclass(slots=True)
class Recv:
    """Receive from ``peer``; answered with the received payload."""
    peer: int


class DatatypeSetup:
    """Charge one derived-datatype setup (``dtype_alpha``) to the local clock."""


class Topology:
    """Answered with the communicator's ``(sources, destinations)`` for this
    rank, or ``None`` off a dist-graph communicator."""


Schedule = Callable[..., Generator[Any, Any, Any]]


class Run(RawRequest):
    """One collective call in flight on one rank.

    One stepping loop, :meth:`_advance`, entered with how far it may go past
    a posted receive that has not matched: ``wait()`` parks on it
    (``Mailbox.wait``) and so runs to the end, blocking on one pending
    receive at a time; ``test()`` stops at the first receive that has not
    arrived; ``start()`` completes none — it runs up to and including the
    first posted receive (buffered sends before it depart at once) without
    looking at what it matched, so starting is deterministic.  ``code``
    replaces the op code of the schedule's tags (the non-blocking
    collectives draw under their own).
    """

    def __init__(self, comm, steps: Generator, code: Optional[int] = None):
        self._comm = comm
        self._steps = steps
        self._code = code
        #: tag of the current phase (the non-blocking entry points report it)
        self.tag: Optional[int] = None
        self._mailbox = comm.state.mailboxes[comm._rank]
        self.waits = self._mailbox.waits
        self._pending: Optional[PendingRecv] = None
        self._done = False
        self._value: Any = None

    def _advance(self, block: Optional[bool]) -> bool:
        """Step until done, or until a pending receive stops it: at once
        (``block`` ``None``), if it has not matched (``False``), never
        (``True``: park until it has)."""
        if self._done:
            return True
        comm = self._comm
        clock = comm.clock
        overhead = clock.model.overhead
        faults = comm.machine.faults
        send = self._steps.send
        pending = self._pending
        answer = None
        try:
            while True:
                if pending is not None:
                    if block is None:
                        return False
                    env = pending.envelope
                    if env is None:
                        if not block:
                            return False
                        env = self._mailbox.wait(pending)
                    # what RawComm._recv charges: posted at clock.now,
                    # wait_until(arrival), one overhead
                    t = env.arrival_time
                    if t > clock.now:
                        clock.comm_seconds += t - clock.now
                        clock.now = t
                    clock.now += overhead
                    clock.comm_seconds += overhead
                    answer = env.payload
                    pending = None
                step = send(answer)
                kind = type(step)
                if kind is Recv:
                    if faults is not None:
                        faults.on_internal(comm)
                    pending = self._pending = self._mailbox.post(
                        step.peer, self.tag, clock.now)
                    continue
                answer = None
                if kind is Send:
                    comm._deposit(step.payload, step.peer, self.tag, False,
                                  step.packed)
                elif kind is Tag:
                    self.tag = comm._next_coll_tag(
                        step.code if self._code is None else self._code)
                elif kind is DatatypeSetup:
                    clock.compute(comm.machine.cost_model.dtype_alpha)
                else:
                    answer = comm.topology
        except StopIteration as stop:
            self._pending = None
            self._value = stop.value
            self._done = True
            return True

    def start(self) -> "Run":
        self._advance(None)
        return self

    def wait(self) -> Any:
        self._advance(True)
        return self._value

    def test(self) -> tuple[bool, Any]:
        return self._advance(False), self._value

    def blocked_on(self):
        return self._pending, (self._pending.source,)

    def audit_state(self) -> str:
        return "completed" if self._done else "pending"

    def audit_pending_recvs(self) -> tuple[PendingRecv, ...]:
        """The posted receive of the in-flight schedule (auditor dedup)."""
        return () if self._pending is None else (self._pending,)
