"""Jobs, job handles, and the admission-controlled priority queue.

The service side of the paper's "millions of users" story is a *stream* of
small jobs, not one big run.  A submitted job becomes a :class:`JobHandle`
(a thread-safe future the client blocks on) plus an internal :class:`Job`
record queued in a :class:`JobQueue`: a bounded priority queue whose
admission control rejects a submission to a full queue with
:class:`ClusterSaturated` — backpressure by refusal, the only kind that
cannot deadlock a full service.

Job kinds (submitted through :class:`repro.service.cluster.Cluster`):
``"call"`` runs ``fn(comm, *args)`` once; ``"epochs"`` keeps its states in
the cluster's resilient shards and restarts from the last committed epoch;
``"bcast"`` / ``"allreduce"`` have a *shape*, by which the dispatcher
coalesces them (:mod:`repro.service.batching`).
"""

from __future__ import annotations

import heapq
import threading
from _thread import allocate_lock
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.core.errors import KampingError


class ClusterError(KampingError):
    """Base class for cluster-service errors."""


class ClusterSaturated(ClusterError):
    """The job queue holds ``queue_depth`` jobs; the submission was rejected.

    Admission control never blocks the submitting thread: a saturated
    service answers immediately so the caller can shed load or retry later.
    """


class JobHandle:
    """Client-side future for one submitted job.

    Settlement is idempotent and first-write-wins: a job that times out
    (:class:`~repro.mpi.errors.RunTimeout` via the cluster watchdog) stays
    failed even if a straggling rank later commits it.  Waiters block on a
    *latch*, one raw lock created held: settling releases it, and each
    waiter acquires it and releases it again for the next.
    """

    def __init__(self, job_id: int, label: str, cluster=None):
        self.job_id = job_id
        self.label = label
        self._cluster = cluster
        self._latch = allocate_lock()
        self._latch.acquire()
        self._lock = threading.Lock()
        self._outcome: Optional[tuple[str, Any]] = None
        self._running = False

    # -- service side ------------------------------------------------------

    def _settle(self, outcome: tuple[str, Any]) -> bool:
        """Record ``("ok", value)`` / ``("err", exc)``; first write wins."""
        with self._lock:
            if self._outcome is not None:
                return False
            self._outcome = outcome
        self._latch.release()
        if self._cluster is not None:
            self._cluster._on_settled(self)
        return True

    # -- client side -------------------------------------------------------

    @property
    def state(self) -> str:
        """``"queued"`` | ``"running"`` | ``"done"`` | ``"failed"``."""
        outcome = self._outcome
        if outcome is None:
            return "running" if self._running else "queued"
        return "done" if outcome[0] == "ok" else "failed"

    def done(self) -> bool:
        return self._outcome is not None

    def result(self, timeout: Optional[float] = None) -> Any:
        """Block for the job's result; re-raises the job's failure."""
        error = self.exception(timeout)
        if error is not None:
            raise error
        return self._outcome[1]

    def exception(self, timeout: Optional[float] = None) -> Optional[BaseException]:
        """Block for settlement; the failure exception, or ``None`` on success."""
        latch = self._latch
        passed = (latch.acquire() if timeout is None
                  else timeout > 0 and latch.acquire(True, timeout))
        if passed:
            latch.release()          # the next waiter passes too
        elif self._outcome is None:  # a timeout <= 0 does not wait
            raise TimeoutError(
                f"job {self.label!r} not settled after {timeout}s")
        status, value = self._outcome
        return value if status == "err" else None

    def trace(self) -> list:
        """This job's slice of the cluster trace (``[]`` unless traced):
        service ranks stamp the job label on every op of the job
        communicator.  Jobs batched into one group share one collective
        stamped with the group's label and therefore return ``[]`` here."""
        if self._cluster is None:
            return []
        return self._cluster.tracer.events_for_job(self.label)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"JobHandle({self.label!r}, {self.state})"


@dataclass
class Job:
    """Internal job record (clients hold the :class:`JobHandle`)."""

    job_id: int
    kind: str                # "call" | "epochs" | "bcast" | "allreduce"
    priority: int
    label: str
    handle: JobHandle
    fn: Optional[Callable] = None
    args: tuple = ()
    epoch_fn: Optional[Callable] = None
    initial_states: tuple = ()
    epochs: int = 1
    payload: Any = None
    root: int = 0
    values: tuple = ()
    dtype: Any = None        # the values' one integer or bool dtype, if any
    op: Any = None


class JobQueue:
    """Thread-safe bounded priority queue with admission control.

    Ordering is ``(priority, submission order)`` — smaller priority values
    run earlier, ties in submission order.  A submission to a queue already
    holding ``depth`` jobs raises :class:`ClusterSaturated`.
    """

    def __init__(self, depth: int):
        if depth < 1:
            raise ClusterError(f"queue depth must be >= 1, got {depth}")
        self.depth = depth
        self._lock = threading.Lock()
        self._heap: list[tuple[int, int, Job]] = []
        self._seq = 0
        self._closed: Optional[str] = None

    def __len__(self) -> int:
        with self._lock:
            return len(self._heap)

    def close(self, reason: str) -> None:
        """Refuse further submissions (``submit`` raises ``ClusterError``)."""
        with self._lock:
            self._closed = reason

    def submit(self, job: Job) -> None:
        with self._lock:
            if self._closed is not None:
                raise ClusterError(self._closed)
            if len(self._heap) >= self.depth:
                raise ClusterSaturated(
                    f"job queue is saturated ({len(self._heap)} queued, "
                    f"queue_depth={self.depth}); retry later or raise "
                    f"queue_depth"
                )
            heapq.heappush(self._heap, (job.priority, self._seq, job))
            self._seq += 1

    def pop_groups(self, shape_of: Callable[[Job], Any], limit: int
                   ) -> tuple[tuple[Job, ...], ...]:
        """Pop the groups of one directive (batching).

        A group is the head job plus the queued jobs of its exact
        ``(priority, shape)``, in submission order, up to ``limit`` jobs.
        While the head is batchable at the first group's priority, its group
        joins: batching never reorders across priorities, and an unbatchable
        head (shape ``None``) is a group, and a directive, alone.
        """
        groups: list[tuple[Job, ...]] = []
        with self._lock:
            priority = self._heap[0][0] if self._heap else None
            while self._heap and self._heap[0][0] == priority:
                head = self._heap[0][2]
                shape = shape_of(head)
                if groups and shape is None:
                    break
                taken = sorted(
                    (e for e in self._heap if e[2] is head or (
                        shape is not None and e[0] == priority
                        and shape_of(e[2]) == shape)),
                    key=lambda e: e[1])[:max(limit, 1)]
                ids = {id(e) for e in taken}
                self._heap = [e for e in self._heap if id(e) not in ids]
                heapq.heapify(self._heap)
                groups.append(tuple(job for _, _, job in taken))
                if shape is None:
                    break
        return tuple(groups)
