"""Schedule steps, the one driver that executes them, and the static co-run.

A collective algorithm is a generator of ``(p, rank, *collective args)`` that
yields the steps below and returns the collective's result; it never sees a
communicator.  :class:`Run` is the only code that turns steps into tags,
mailbox traffic, clock charges and fault hooks — for the blocking collectives
(``Run(...).wait()``) and the non-blocking ones (the same object, started and
handed to the caller as its request).  :func:`corun` executes the p
generators of one schedule on one thread over in-memory channels, which is
where static fragments come from.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, Dict, Generator, Optional, Tuple

import numpy as np

from repro.mpi.errors import RawUsageError
from repro.mpi.ops import SUM
from repro.mpi.p2p import Envelope, PendingRecv
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
_envelope = attrgetter("envelope")  # Run.test: None until the receive matched


class Run(RawRequest):
    """One collective call in flight on one rank.

    One stepping loop, :meth:`_advance`, entered with the function that
    completes a posted receive: ``wait()`` passes ``Mailbox.wait`` and so runs
    to the end, blocking on one pending receive at a time; ``test()`` reads
    its envelope and stops at the first receive that has not arrived;
    ``start()`` completes none — it runs up to and including the first posted
    receive (buffered sends before it depart at once) without looking at the
    mailbox, so starting is deterministic.  ``code`` replaces the op code of
    the schedule's tags (the non-blocking collectives draw under their own).
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

    def _advance(self, complete: Callable[[PendingRecv], Optional[Envelope]]
                 ) -> bool:
        if self._done:
            return True
        comm = self._comm
        clock = comm.clock
        faults = comm.machine.faults
        send = self._steps.send
        pending = self._pending
        answer = None
        try:
            while True:
                if pending is not None:
                    # what RawComm._recv charges: posted at clock.now,
                    # wait_until(arrival), one overhead
                    env = complete(pending)
                    if env is None:
                        return False
                    clock.wait_until(env.arrival_time)
                    clock.charge_overhead()
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
        self._advance(lambda pending: None)
        return self

    def wait(self) -> Any:
        self._advance(self._mailbox.wait)
        return self._value

    def test(self) -> tuple[bool, Any]:
        return self._advance(_envelope), self._value

    def blocked_on(self):
        return self._pending.gate, (self._pending.source,)

    def audit_state(self) -> str:
        return "completed" if self._done else "pending"

    def audit_pending_recvs(self) -> tuple[PendingRecv, ...]:
        """The posted receive of the in-flight schedule (auditor dedup)."""
        return () if self._pending is None else (self._pending,)


class FragmentUnsound(KeyError):
    """No static fragment can exist for this algorithm (see :data:`UNSOUND`).

    Subclasses :class:`KeyError` so existing "opaque algorithm" handling
    (``except KeyError``) keeps working unchanged."""


#: algorithms whose wire schedule depends on something the static
#: ``(p, rank, root)`` signature cannot see, mapped to the reason.  Listing an
#: algorithm here is a *permanent* marking, not a TODO: a static fragment for
#: one of these would hand the rewrite passes a schedule that is wrong for
#: part of the input space.
UNSOUND: Dict[Tuple[str, str], str] = {
    ("allreduce", "ring"): (
        "payload-dependent eligibility: runs the ring schedule only for a "
        "commutative-op 1-D ndarray with >= p elements, silently falling "
        "back to reduce_bcast otherwise"
    ),
    ("neighbor_alltoall", "direct"): "topology-dependent: one message per "
                                     "edge of the communicator's dist graph",
    ("neighbor_alltoallv", "direct"): "topology-dependent: one message per "
                                      "edge of the communicator's dist graph",
}


def _witness(collective: str, p: int, r: int, root: int) -> tuple:
    """What rank ``r`` passes in a co-run: its rank as payload, ``SUM`` as
    operator, unit counts."""
    ones, block, row = [1] * p, np.array([r]), np.arange(p)
    return {
        "barrier": (), "bcast": (r, root), "gather": (r, root),
        "gatherv": (block, ones, root), "scatter": (list(row), root),
        "scatterv": (row, ones, root), "allgather": (r,),
        "allgatherv": (block, ones), "alltoall": (list(row),),
        "alltoallv": (row, ones, ones), "alltoallw": (list(row),),
        "reduce": (r, SUM, root), "allreduce": (r, SUM),
        "scan": (r, SUM), "exscan": (r, SUM),
    }[collective]


def corun(schedule: Schedule, p: int, args: Callable[[int], tuple]
          ) -> tuple[list, list]:
    """Run ``schedule`` on all p ranks, one thread, in-memory FIFO channels.

    Rank ``r`` is called as ``schedule(p, r, *args(r))``.  Returns
    ``(steps, values)``: each rank's ``("send" | "recv", peer)`` sequence in
    issue order, and each rank's result.
    """
    gens = [schedule(p, r, *args(r)) for r in range(p)]
    channels: Dict[Tuple[int, int], deque] = defaultdict(deque)
    steps: list = [[] for _ in range(p)]
    values: list = [None] * p
    stuck: dict = dict.fromkeys(range(p))  # rank -> peer it waits for
    progress = True
    while stuck and progress:
        progress = False
        for r, peer in list(stuck.items()):
            if peer is not None and not channels[peer, r]:
                continue
            progress = True
            answer = None if peer is None else channels[peer, r].popleft()
            try:
                while True:
                    step = gens[r].send(answer)
                    answer = None
                    if type(step) is Send:
                        steps[r].append(("send", step.peer))
                        channels[r, step.peer].append(step.payload)
                    elif type(step) is Recv:
                        steps[r].append(("recv", step.peer))
                        if not channels[step.peer, r]:
                            stuck[r] = step.peer
                            break
                        answer = channels[step.peer, r].popleft()
            except StopIteration as stop:
                values[r] = stop.value
                del stuck[r]
    if stuck:
        raise RawUsageError(f"schedule deadlocks at p={p}: {stuck}")
    return steps, values
