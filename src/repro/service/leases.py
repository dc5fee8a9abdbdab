"""Communicator leases: the dispatcher's audited pipeline of directives.

Every job directive carries a :class:`CommLease`, one of a fixed set of
*slots*; the dispatcher issues a directive only while a slot is free, so
``lease_slots`` bounds how many directives are in the log unfinished.  The
jobs themselves run on the generation's one job communicator (a dup of the
scope communicator, see :class:`repro.service.cluster.Cluster`), isolated
from the resilience machinery's control traffic — the same reason
production codes ``MPI_Comm_dup`` per library.

The pool is dispatcher-side bookkeeping: it audits every lease with the
MPIsan ``lease`` resource kind
(:meth:`repro.mpi.sanitizer.ResourceAuditor.track_lease`), so a lease that is
never returned surfaces at ``Cluster.shutdown()`` with the backtrace of the
submission that created it.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.service.jobs import ClusterError


class CommLease:
    """One leased pipeline slot, audited by MPIsan.

    ``returned`` is observed passively by the auditor sweep — releasing a
    lease is one attribute write, in keeping with the sanitizer's
    zero-overhead release discipline.
    """

    #: op name MPIsan reports for a leaked lease
    op = "comm_lease"

    def __init__(self, pool: "LeasePool", slot: int, label: str):
        self._pool = pool
        self.slot = slot
        self.label = label
        self.returned = False

    def release(self) -> None:
        """Return the slot to the pool (idempotent)."""
        self._pool._release(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "returned" if self.returned else "leased"
        return f"CommLease(slot={self.slot}, label={self.label!r}, {state})"


class LeasePool:
    """Fixed pool of pipeline slots with blocking acquisition.

    The dispatcher waits for a free slot (``wait_free``), forms its job
    group, and acquires internally (``_acquire``); the public
    :meth:`acquire` — for clients that reserve a slot outside the job queue
    — refuses to take the *last* free slot so the dispatcher can always make
    progress.
    """

    def __init__(self, slots: int, auditor=None):
        if slots < 1:
            raise ClusterError(f"lease_slots must be >= 1, got {slots}")
        self.slots = slots
        self._auditor = auditor
        self._cv = threading.Condition()
        self._free = list(range(slots))
        self._leased: dict[int, CommLease] = {}

    def free_slots(self) -> int:
        with self._cv:
            return len(self._free)

    def outstanding(self) -> list[CommLease]:
        """Leases acquired but not yet returned (diagnostic)."""
        with self._cv:
            return list(self._leased.values())

    def wait_free(self, timeout: Optional[float] = None) -> bool:
        """Block until a slot is free, without taking it.

        For the dispatcher, the only taker of the last slot: whatever it
        then ``_acquire``s is granted at once.
        """
        with self._cv:
            return bool(self._cv.wait_for(lambda: self._free, timeout=timeout))

    def acquire(self, label: str, timeout: Optional[float] = None
                ) -> CommLease:
        """Public acquisition; never takes the last free slot."""
        return self._acquire(label, reserve=1, timeout=timeout)

    def _acquire(self, label: str, *, reserve: int = 0,
                 timeout: Optional[float] = None) -> CommLease:
        with self._cv:
            if not self._cv.wait_for(lambda: len(self._free) > reserve,
                                     timeout=timeout):
                raise ClusterError(
                    f"no communicator lease available for {label!r} "
                    f"({self.slots} slots, {len(self._free)} free, "
                    f"{reserve} reserved for the dispatcher)"
                )
            # round-robin: slots are reused oldest-freed-first so a stuck
            # slot is noticed (its next acquire blocks) rather than shadowed
            slot = self._free.pop(0)
            lease = CommLease(self, slot, label)
            self._leased[slot] = lease
        if self._auditor is not None:
            self._auditor.track_lease(
                lease,
                comm=("cluster-lease", slot),
                detail=f"communicator lease for {label!r} never returned",
            )
        return lease

    def _release(self, lease: CommLease) -> None:
        with self._cv:
            if lease.returned:
                return
            lease.returned = True
            del self._leased[lease.slot]
            self._free.append(lease.slot)
            self._cv.notify_all()
