"""Real-time wait discipline: one park loop for every wait.

A wait — a receive, a probe, a synchronous send, an ``ibarrier`` wait, a
shrink/agree rendezvous, an RMA lock — is one call of :meth:`WaitContext.park`
on a one-shot :class:`Gate`; a ``waitany``, on an :class:`AnyGate` of several:

- **Completion is opening the gate**, decided by whoever changes the state,
  under that state's lock: a delivery matches a posted receive or a parked
  probe, a match tells the synchronous sender, the last arrival completes the
  barrier epoch or the rendezvous (as does a failure that shrinks the alive
  set), an unlock hands the RMA lock on.  The waiter evaluates no predicate.
- **Everything else is an interrupt.**  Each communicator has one
  :class:`WaitContext`, built by its ``CommState``, where every gate is
  registered while its waiter is parked.  ``Machine.mark_failed`` (so
  ``abort`` too) interrupts the context of every communicator,
  ``CommState.revoke`` its own.  The waiter runs the loop's checks —
  revoked → failed peers → deadline — before it parks and after every
  wake-up, and parks again if none applies; one that does first withdraws
  what the waiter had queued, and if that completed in the meantime so does
  the wait, because a match cannot be undone.
- **The deadline is real elapsed time** (``time.monotonic``), not a count of
  wake-ups: a park that returns early must not stall the deadline clock.

No park has a timer of its own, because nothing is discovered by polling and
no interrupt can be lost: the waiter registers its gate in ``parked`` before
its first look at ``revoked`` and ``failed``, and every writer changes that
state before it interrupts.  A change made before the registration is seen
by the look; an interrupt made after it releases the lock.  So a park is one
acquire of the gate's lock for what is left of the deadline, counted from
one ``time.monotonic()`` stamp.
"""

from __future__ import annotations

import time
from _thread import allocate_lock
from typing import Any, Callable, Collection, Optional

from repro.mpi.errors import RawCommRevoked, RawDeadlockError, RawProcessFailure


class Gate:
    """A one-shot gate one waiter parks on, over a raw ``_thread`` lock.

    Closed at construction.  :meth:`open` completes it for good;
    :meth:`interrupt` only wakes the waiter, which looks at what changed and
    parks again (a wake-up re-closes the lock).  Wakers need no common lock:
    the waiter only ever *acquires*, ``opened`` is set before the lock is
    looked at, and of two wakers racing past the same ``locked()`` the loser's
    ``release()`` of an unlocked lock is swallowed — its wake-up has been
    delivered by the winner's.
    """

    __slots__ = ("_lock", "opened")

    def __init__(self) -> None:
        self._lock = allocate_lock()
        self._lock.acquire()
        self.opened = False

    def open(self) -> None:
        """Complete the gate (idempotent) and wake the waiter."""
        self.opened = True
        if self._lock.locked():  # interrupt(), without its frame per message
            try:
                self._lock.release()
            except RuntimeError:
                pass

    def interrupt(self) -> None:
        """Wake the waiter without completing; a no-op if already woken."""
        if self._lock.locked():
            try:
                self._lock.release()
            except RuntimeError:  # another waker released it in between
                pass

    def park(self, timeout: float) -> bool:
        """Sleep until opened, interrupted or timed out; ``True`` iff opened."""
        if not self.opened:
            self._lock.acquire(True, timeout)
        return self.opened


class AnyGate(Gate):
    """Open while any of ``gates`` is: one waiter, several wakers, each gate
    rebound onto this lock (a waker that read the old one had set ``opened``
    first; a later park on one of the gates may wake once early)."""

    __slots__ = ("gates",)

    def __init__(self, gates: Collection[Gate]) -> None:
        self._lock = lock = allocate_lock()
        lock.acquire()
        self.gates = gates
        for gate in gates:
            gate._lock = lock

    @property
    def opened(self) -> bool:
        return any(gate.opened for gate in self.gates)


class WaitContext:
    """What the blocking waits on one communicator look at before they park
    and when they wake, and who is parked.  A bare ``WaitContext()`` belongs to no machine: its
    waits have a deadline and nothing else."""

    __slots__ = ("deadline", "members", "fuzz", "revoked", "parked",
                 "_machine")

    def __init__(self, deadline: float = 120.0, machine=None,
                 members: tuple[int, ...] = ()):
        self.deadline = deadline
        #: read for its ``failed`` set, which it replaces whole on a failure
        self._machine = machine
        #: world ranks of the communicator's members; local rank == index
        self.members = members
        #: the schedule fuzzer, whose ``pause`` delays each delivery
        self.fuzz = machine and machine.fuzzer
        #: set by ``CommState.revoke``; ends every wait that names a ``doing``
        self.revoked = False
        #: the gates with a waiter parked on them right now (as keys: set,
        #: deleted and copied in single operations, so under no lock)
        self.parked: dict[Gate, None] = {}

    def interrupt(self) -> None:
        """Wake every parked waiter without completing any: what their
        checks look at changed (a rank failed, the communicator was revoked)."""
        for gate in tuple(self.parked):
            gate.interrupt()

    def park(self, gate: Gate, peers: Optional[Collection[int]],
             doing: Optional[str], stuck: str,
             withdraw: Optional[Callable[[Any], bool]] = None,
             entry: Any = None) -> None:
        """Block until ``gate`` opens — the one wait loop of the runtime.

        The failure of one of the communicator's ranks ``peers`` (``None``: of
        any of its members) ends it with :class:`RawProcessFailure`;
        revocation with :class:`RawCommRevoked` "... revoked while ``doing``"
        unless ``doing`` is ``None`` (shrink and agree run *on* a revoked
        communicator); the deadline with :class:`RawDeadlockError` ``stuck``,
        formatted with ``entry`` and ``deadline``.  Each first takes back what
        the waiter had queued, ``withdraw(entry)``; ``False`` says the
        operation completed meanwhile, and then so does the wait."""
        if gate.opened:
            return
        lock = gate._lock
        # registered before the first look: a writer changes what the look
        # reads before it interrupts, so a change is either seen or a wake-up
        self.parked[gate] = None
        try:
            left = self.deadline
            end = time.monotonic() + left
            while True:
                failed = self._machine.failed if self._machine else ()
                if failed:  # of the communicator's ranks ``peers`` only
                    members = self.members
                    failed = failed.intersection(members if peers is None else (
                        members[r] for r in peers if r < len(members)))
                if doing is not None and self.revoked:
                    error = RawCommRevoked(f"communicator revoked while {doing}")
                elif failed:
                    error = RawProcessFailure(failed)
                elif left <= 0:
                    error = RawDeadlockError(
                        stuck.format(entry, deadline=self.deadline))
                else:
                    # Gate.park, without its frame per park
                    lock.acquire(True, left)
                    if gate.opened:
                        return
                    # interrupted or timed out: look again either way
                    left = end - time.monotonic()
                    continue
                if withdraw is None or withdraw(entry):
                    raise error
                return
        finally:
            del self.parked[gate]
