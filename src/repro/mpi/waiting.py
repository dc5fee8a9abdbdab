"""Real-time wait discipline for blocking operations.

Every blocking primitive of the runtime (mailbox waits, probes, synchronous
sends, the non-blocking barrier, RMA locks, shrink/agree rendezvous) is built
from the same three ingredients:

- **park on a gate or a condition**, so the thread sleeps until somebody
  wakes it.  A receive and a synchronous send park on their own one-shot
  :class:`Gate` (a raw ``_thread`` lock, no ``threading.Event``; a receive
  gets one only when it has to queue); waits on shared state (probes,
  barrier epochs, rendezvous, RMA locks) park on that state's
  ``threading.Condition``.
- **notification of failure, revocation and abort**: ``Machine.mark_failed``,
  ``Machine.abort`` and ``CommState.revoke`` call ``interrupt()``, which wakes
  the posted receives' gates and notifies the conditions concerned.  The
  woken waiter runs its checks (revoked → failed source → deadline) and parks
  again if none applies.
- **deadline accounting on real elapsed time** (``time.monotonic``), not on
  a count of wake-ups — a park that returns early (an interrupt, a notify for
  somebody else's message) must not stall the deadline clock.

Nothing is discovered by polling, so no park needs a short timer:
:class:`Backoff` paces every park with one long timed wait — ``MAX_STEP``, or
what is left of the deadline if that is nearer — whose expiry merely re-runs
the checks as belt and braces.  The optional ``fuzz`` hook lets the schedule
fuzzer (:mod:`repro.mpi.sanitizer`) perturb wake-up ordering
deterministically without the wait loops knowing about it.
"""

from __future__ import annotations

import time
from _thread import allocate_lock
from typing import Optional, Protocol


class WakeupFuzz(Protocol):  # pragma: no cover - typing only
    def jitter(self, timeout: float) -> float: ...


#: the timeout of every park whose deadline is further away (seconds)
MAX_STEP = 0.05
#: smallest timeout ever handed out (keeps fuzzed timeouts positive)
MIN_STEP = 1e-4


class Gate:
    """A one-shot gate one waiter parks on, over a raw ``_thread`` lock.

    Closed at construction.  :meth:`open` completes it for good;
    :meth:`interrupt` only wakes the waiter, which looks at what changed and
    parks again (a wake-up re-closes the lock).  Both are called under the
    lock of whoever owns the gate (the mailbox's, for a posted receive): that
    makes ``locked()``/``release()`` atomic among wakers, and the waiter only
    ever *acquires*, so it cannot invalidate the check.
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
            self._lock.release()

    def interrupt(self) -> None:
        """Wake the waiter without completing; a no-op if already woken."""
        if self._lock.locked():
            self._lock.release()

    def park(self, timeout: float) -> bool:
        """Sleep until opened, interrupted or timed out; ``True`` iff opened."""
        if not self.opened:
            self._lock.acquire(True, timeout)
        return self.opened


class Backoff:
    """Deadline-tracked pacing of the parks of one blocking wait.

    ``deadline`` is the wall-clock budget in seconds; :attr:`expired` flips
    once that much *real* time has elapsed since construction, no matter how
    many (possibly early-returning) parks happened in between.
    """

    __slots__ = ("_deadline", "_start", "_step", "_fuzz")

    def __init__(self, deadline: float, *, step: float = MAX_STEP,
                 fuzz: Optional[WakeupFuzz] = None):
        self._deadline = deadline
        self._start = time.monotonic()
        self._step = step
        self._fuzz = fuzz

    def next_timeout(self) -> float:
        """The timeout for the next park: ``step``, or what is left of the
        deadline if that is nearer, so an expiring wait wakes close to the
        deadline instead of oversleeping a whole step."""
        step = self._step
        if self._fuzz is not None:
            step = self._fuzz.jitter(step)
        left = self._deadline - (time.monotonic() - self._start)
        return max(min(step, left), MIN_STEP)

    @property
    def elapsed(self) -> float:
        """Real seconds since this wait began."""
        return time.monotonic() - self._start

    @property
    def expired(self) -> bool:
        """True once the deadline's worth of real time has elapsed."""
        return self.elapsed >= self._deadline
