"""The persistent cluster service: one machine, many jobs, elastic membership.

A :class:`Cluster` owns a thread-backend machine's worth of ranks for its
whole lifetime and runs a *stream* of jobs over them — the long-running
service shape that one-shot ``run_mpi`` cannot express.  Four mechanisms
compose:

1. **Admission control** — a bounded priority queue
   (:class:`~repro.service.jobs.JobQueue`) rejects a submission with
   :class:`~repro.service.jobs.ClusterSaturated` once it is full.
2. **One job communicator** — every job of a membership generation runs
   on one dup of the cluster's communicator.
3. **Request batching** — compatible small collective jobs are coalesced
   into one shared collective (:mod:`repro.service.batching`).
4. **Elastic membership** — every generation runs under a
   :class:`~repro.plugins.resilience.ResilientScope`: a failed rank is
   revoked/shrunk/agreed away mid-stream and epochal jobs restart from the
   last committed epoch; a joining spare is admitted at the next directive
   boundary and receives replicated state through the genesis commit.

Coordination happens through a grow-only *directive log*: the dispatcher
appends directives (job groups, joins, shutdown) and every service rank
consumes the log in order through its own cursor, so all ranks observe the
identical sequence of collectives whatever the thread schedule — which
makes chaos runs bit-comparable to failure-free runs.  Its unfinished job
directives bound the dispatcher's pipeline.

SPMD contract for job functions: a ``submit()``'d ``fn(comm, *args)`` runs
on *every* service rank.  Deterministic (SPMD-replicated) exceptions are
captured per job and re-raised from ``JobHandle.result()``; an exception
raised on only *some* ranks abandons collective peers and is caught by the
``job_timeout`` watchdog, which fails the stream's outstanding handles with
:class:`~repro.mpi.errors.RunTimeout` (per-rank stacks attached) and wedges
the cluster.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from repro.core.communicator import Communicator
from repro.core.plugins import extend
from repro.mpi.backends.base import resolve_tracer, schedule_rank_thread
from repro.mpi.context import RawComm
from repro.mpi.costmodel import CostModel
from repro.mpi.engine import CollectiveEngine
from repro.mpi.errors import (
    ProcessKilled,
    RawCommRevoked,
    RawDeadlockError,
    RawProcessFailure,
    RunTimeout,
)
from repro.mpi.machine import Machine, audit_leaks
from repro.mpi.ops import Op
from repro.mpi.sanitizer import (
    LeakReport,
    ResourceAuditor,
    ResourceLeakError,
    ScheduleFuzzer,
    env_fuzz_seed_default,
    env_sanitize_default,
)
from repro.mpi.tracing import NULL_TRACER, TraceRecorder
from repro.mpi.watchdog import format_stacks, thread_stacks
from repro.plugins.resilience import ResilientScope
from repro.plugins.ulfm import ULFM, MPIFailureDetected
from repro.service.batching import batch_label, int_dtype, run_batch, shape_of
from repro.service.jobs import ClusterError, Job, JobHandle, JobQueue

#: the service's communicator class: full bindings + ULFM fault tolerance
ClusterComm = extend(Communicator, ULFM)

#: job directives the log may hold unfinished.  At the bound the dispatcher
#: forms the next directive only once one finishes, so queued jobs pile up
PIPELINE_DEPTH = 2


# -- the directive log -------------------------------------------------------

@dataclass
class _JobsDirective:
    index: int
    groups: tuple[tuple[Job, ...], ...]


@dataclass
class _JoinDirective:
    index: int
    world_rank: int


@dataclass
class _ShutdownDirective:
    index: int


class _DirectiveLog:
    """Grow-only log, and the one record of the job directives in flight:
    ``unfinished`` maps each to its start time (``None`` until a rank starts
    it).  Each waiter has its own condition over the log's lock, so a finish
    does not wake the ranks waiting for the next directive."""

    def __init__(self) -> None:
        lock = threading.Lock()
        self.cv = threading.Condition(lock)        # ranks: the next directive
        self.slot_cv = threading.Condition(lock)   # dispatcher: a free slot
        self.watch_cv = threading.Condition(lock)  # watchdog: start / finish
        self.log: list[Any] = []
        self.unfinished: dict[int, Optional[float]] = {}

    def append(self, make: Callable[[int], Any]) -> Any:
        with self.cv:
            directive = make(len(self.log))
            self.log.append(directive)
            if isinstance(directive, _JobsDirective):
                self.unfinished[directive.index] = None
            self.cv.notify_all()
            return directive

    def get(self, index: int, give_up: threading.Event) -> Optional[Any]:
        """Block until directive ``index`` exists; ``None`` once wedged."""
        with self.cv:
            while len(self.log) <= index:
                if give_up.is_set():
                    return None
                self.cv.wait()
            return self.log[index]

    def wake(self) -> None:
        with self.cv:
            self.cv.notify_all()
            self.slot_cv.notify_all()
            self.watch_cv.notify_all()

    def mark_started(self, index: int) -> None:
        with self.cv:
            if index in self.unfinished and self.unfinished[index] is None:
                self.unfinished[index] = time.monotonic()
                self.watch_cv.notify()

    def mark_finished(self, index: int) -> None:
        with self.cv:
            self.unfinished.pop(index, None)
            self.slot_cv.notify()
            self.watch_cv.notify()

    def wait_slot(self, give_up: threading.Event) -> bool:
        """Block until fewer than :data:`PIPELINE_DEPTH` job directives are
        unfinished; ``False`` once ``give_up`` is set."""
        with self.cv:
            self.slot_cv.wait_for(
                lambda: len(self.unfinished) < PIPELINE_DEPTH
                or give_up.is_set())
        return not give_up.is_set()

    def overdue(self, budget: float, give_up: threading.Event
                ) -> Optional[_JobsDirective]:
        """Block until a started job directive has run ``budget`` seconds
        and return it; ``None`` once ``give_up`` is set."""
        with self.cv:
            while not give_up.is_set():
                running = [(t0, i) for i, t0 in self.unfinished.items()
                           if t0 is not None]
                t0, index = min(running, default=(None, None))
                left = None if t0 is None else t0 + budget - time.monotonic()
                if left is not None and left <= 0:
                    return self.log[index]
                self.watch_cv.wait(left)   # no timer while nothing runs
        return None


class Cluster:
    """A persistent pool of ranks executing a stream of jobs.

    ::

        with Cluster(4, spares=1, trace=True) as cluster:
            h = cluster.submit_allreduce([1, 2, 3], op=SUM)
            assert h.result() == 6
            cluster.add_rank()              # grow at the next boundary
            cluster.drain()

    Constructor knobs (beyond the obvious): ``spares`` ranks are parked and
    admitted by :meth:`add_rank`; ``queue_depth`` bounds admission;
    ``batch_limit`` caps coalesced groups; ``job_timeout`` arms the per-
    directive watchdog; ``max_attempts`` bounds each epoch's recovery loop;
    ``hold_jobs=True`` parks the dispatcher until :meth:`release_jobs` (lets
    tests enqueue a full stream first, making batching and chaos runs
    deterministic).  The ranks are threads of this process.
    """

    def __init__(self, num_ranks: int, *, spares: int = 0,
                 queue_depth: int = 64, batch_limit: int = 8,
                 cost_model: Optional[CostModel] = None,
                 deadline: float = 60.0,
                 job_timeout: Optional[float] = None,
                 max_attempts: int = 9,
                 trace: bool | TraceRecorder = False,
                 engine: Optional[CollectiveEngine] = None,
                 sanitize: Optional[bool] = None,
                 fuzz_seed: Optional[int] = None,
                 faults: Any = None,
                 hold_jobs: bool = False):
        if num_ranks < 1:
            raise ClusterError(f"num_ranks must be >= 1, got {num_ranks}")
        if spares < 0:
            raise ClusterError(f"spares must be >= 0, got {spares}")
        if job_timeout is not None and job_timeout <= 0:
            raise ClusterError(
                f"job_timeout must be > 0 seconds, got {job_timeout}")

        recorder = resolve_tracer(trace, num_ranks + spares)
        self.tracer = NULL_TRACER if recorder is None else recorder
        if sanitize is None:
            sanitize = env_sanitize_default()
        if fuzz_seed is None:
            fuzz_seed = env_fuzz_seed_default()
        auditor = ResourceAuditor() if sanitize else None
        fuzzer = ScheduleFuzzer(fuzz_seed) if fuzz_seed is not None else None

        capacity = num_ranks + spares
        self.machine = Machine(
            capacity, cost_model=cost_model, deadline=deadline,
            tracer=recorder, engine=engine, auditor=auditor, fuzzer=fuzzer,
            faults=faults)
        self.num_ranks = num_ranks
        self.capacity = capacity
        self.batch_limit = batch_limit
        self.job_timeout = job_timeout
        self.max_attempts = max_attempts

        self.queue = JobQueue(queue_depth)
        self._directives = _DirectiveLog()
        self._fuzzer = fuzzer

        self._lock = threading.Lock()
        self._job_seq = 0
        self._unsettled: set[JobHandle] = set()
        self._drain_cv = threading.Condition(self._lock)
        self._dispatch_cv = threading.Condition(self._lock)
        self._held = bool(hold_jobs)
        self._shutting_down = False
        self._shutdown_report: Optional[LeakReport] = None
        self._join_requests: list[int] = []
        self._spares = list(range(num_ranks, capacity))
        self._wedged = threading.Event()
        self._wedge_error: Optional[BaseException] = None

        # admission board for parked spares: world_rank -> (cursor, members,
        # generation), published idempotently by every active rank
        self._admission: dict[int, tuple[int, tuple[int, ...], int]] = {}
        self._admission_cv = threading.Condition()

        # per-rank job communicator: world rank -> (scope raw comm, its
        # dup); pre-created so rank threads never change the dict's shape
        self._job_comms: dict[int, tuple[Optional[RawComm], Any]] = {
            w: (None, None) for w in range(capacity)}

        #: cumulative counters, updated under self._lock
        self.stats: dict[str, Any] = {
            "jobs_submitted": 0, "jobs_done": 0, "jobs_failed": 0,
            "directives": 0, "groups": 0, "batched_groups": 0,
            "recoveries": [], "joins": [],
        }

        self._threads = [
            threading.Thread(target=self._rank_main, args=(w,),
                             name=f"rank-{w}", daemon=True)
            for w in range(capacity)
        ]
        self._dispatcher = threading.Thread(
            target=self._dispatch_main, name="cluster-dispatch", daemon=True)
        for t in self._threads:
            t.start()
        self._dispatcher.start()
        if job_timeout is not None:
            threading.Thread(target=self._monitor_main,
                             name="cluster-watchdog", daemon=True).start()

    # -- client API: submission --------------------------------------------

    def submit(self, fn: Callable, *args: Any, priority: int = 0,
               label: Optional[str] = None) -> JobHandle:
        """Queue ``fn(comm, *args)`` to run once on the job communicator.

        ``fn`` executes SPMD on every service rank; the job's result is the
        return value of the rank at local rank 0.  For bit-identical results
        across chaos-induced shrinks, write ``fn`` oblivious to ``comm.size``
        (or use the collective submit helpers, which already are for closed
        discrete domains).
        """
        return self._enqueue(kind="call", fn=fn, args=tuple(args),
                             priority=priority, label=label)

    def submit_epochs(self, epoch_fn: Callable, initial_states: Sequence, *,
                      epochs: int = 1, priority: int = 0,
                      label: Optional[str] = None) -> JobHandle:
        """Queue an epoch-structured job with buddy-checkpointed state.

        ``initial_states`` is a sequence of per-virtual-rank states,
        distributed over the service ranks; ``epoch_fn(comm, mine, epoch)``
        receives this rank's share as ``[(vkey, state), ...]`` and returns
        the updated pairs.  Each epoch commits through the cluster's
        resilient scope, so a mid-job failure replays only the current
        epoch.  The result is the final states ordered by virtual key.
        """
        if epochs < 1:
            raise ClusterError(f"epochs must be >= 1, got {epochs}")
        return self._enqueue(kind="epochs", epoch_fn=epoch_fn,
                             initial_states=tuple(initial_states),
                             epochs=epochs, priority=priority, label=label)

    def submit_bcast(self, payload: Any, *, root: int = 0, priority: int = 0,
                     label: Optional[str] = None) -> JobHandle:
        """Queue a broadcast job (batchable: shape ``("bcast", root)``)."""
        if root < 0 or root >= self.num_ranks:
            raise ClusterError(
                f"bcast root must be a rank of the initial membership "
                f"[0, {self.num_ranks}), got {root}"
            )
        return self._enqueue(kind="bcast", payload=payload, root=root,
                             priority=priority, label=label)

    def submit_allreduce(self, values: Sequence, *, op: Op,
                         priority: int = 0,
                         label: Optional[str] = None) -> JobHandle:
        """Queue a reduction of ``values`` (batchable per-``op``).

        The values are strided over the service ranks and reduced with
        ``op``; the result is exact for closed discrete domains (ints under
        SUM/MIN/MAX/...), where it is also bit-identical across membership
        changes.
        """
        values = tuple(values)
        if not values:
            raise ClusterError("allreduce job needs at least one value")
        if not isinstance(op, Op):
            raise ClusterError(
                f"op must be a repro.mpi Op (SUM, MIN, user_op(...)), "
                f"got {type(op).__name__}"
            )
        return self._enqueue(kind="allreduce", values=values, op=op,
                             dtype=int_dtype(values), priority=priority,
                             label=label)

    def _enqueue(self, *, kind: str, priority: int,
                 label: Optional[str], **fields: Any) -> JobHandle:
        with self._lock:
            self._check_alive()
            job_id = self._job_seq
            self._job_seq += 1
        handle = JobHandle(job_id, label or f"job-{job_id}", cluster=self)
        job = Job(job_id=job_id, kind=kind, priority=priority,
                  label=handle.label, handle=handle, **fields)
        self.queue.submit(job)       # may raise ClusterSaturated
        with self._lock:
            self._unsettled.add(handle)
            self.stats["jobs_submitted"] += 1
            self._dispatch_cv.notify_all()
        return handle

    # -- client API: lifecycle ---------------------------------------------

    def add_rank(self) -> int:
        """Admit one parked spare at the next directive boundary.

        Returns the admitted world rank.  The joiner enters a fresh
        membership generation whose genesis commit replicates the cluster's
        committed state onto it via its ring buddy.
        """
        with self._lock:
            self._check_alive()
            if not self._spares:
                raise ClusterError(
                    f"no spare ranks left (capacity {self.capacity}, all "
                    f"admitted); construct the cluster with more spares"
                )
            world_rank = self._spares.pop(0)
            self._join_requests.append(world_rank)
            self._dispatch_cv.notify_all()
        return world_rank

    def release_jobs(self) -> None:
        """Release a ``hold_jobs=True`` cluster's dispatcher."""
        with self._lock:
            self._held = False
            self._dispatch_cv.notify_all()

    def drain(self, timeout: Optional[float] = None) -> None:
        """Block until every submitted job has settled."""
        with self._drain_cv:
            if not self._drain_cv.wait_for(lambda: not self._unsettled,
                                           timeout=timeout):
                raise TimeoutError(f"{len(self._unsettled)} job(s) still "
                                   f"unsettled after {timeout}s")

    def shutdown(self, timeout: Optional[float] = None
                 ) -> Optional[LeakReport]:
        """Drain queued jobs, stop the ranks, and run the MPIsan audit.

        Further submissions are refused immediately; already-queued jobs
        still run.  The audit raises :class:`~repro.mpi.sanitizer.
        ResourceLeakError` on any leak in a life that saw no rank failure
        and no wedge, and returns the leak report otherwise.
        """
        with self._lock:
            if self._shutting_down:
                return self._shutdown_report
            self._shutting_down = True
            self._held = False       # a held queue would never drain
            self._dispatch_cv.notify_all()
        with self._admission_cv:     # spares nobody admitted stop waiting
            self._admission_cv.notify_all()
        self.queue.close("the cluster is shutting down; submission refused")
        join_budget = timeout if timeout is not None else self.machine.deadline
        self._dispatcher.join(join_budget)
        for t in self._threads:
            t.join(join_budget if not self._wedged.is_set() else 1.0)
        self._wedged.set()           # stops the monitor; threads are gone
        self._directives.wake()
        self._reject_unsettled(ClusterError(
            "the cluster shut down before this job settled"))
        try:
            self._shutdown_report = audit_leaks(
                self.machine, failed=bool(self.machine.failed) or self.wedged)
        except ResourceLeakError as exc:
            self._shutdown_report = exc.report
            raise
        return self._shutdown_report

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    @property
    def wedged(self) -> bool:
        return self._wedge_error is not None

    def _check_alive(self) -> None:
        if self._shutting_down:
            raise ClusterError(
                "the cluster is shutting down; submission refused")
        if self._wedge_error is not None:
            raise ClusterError(f"the cluster is wedged: {self._wedge_error}")

    def _on_settled(self, handle: JobHandle) -> None:
        with self._lock:
            self._unsettled.discard(handle)
            self.stats[f"jobs_{handle.state}"] += 1    # done | failed
            self._drain_cv.notify_all()

    # -- dispatcher ---------------------------------------------------------

    def _dispatch_main(self) -> None:
        while True:
            with self._lock:
                self._dispatch_cv.wait_for(
                    lambda: self._wedged.is_set()
                    or self._join_requests
                    or (not self._held
                        and (len(self.queue) or self._shutting_down)))
                if self._wedged.is_set():
                    return
                join = (self._join_requests.pop(0)
                        if self._join_requests else None)
            if join is not None:
                self._directives.append(
                    lambda i: _JoinDirective(index=i, world_rank=join))
                continue
            if len(self.queue):
                # groups form once a pipeline slot is free, so jobs submitted
                # meanwhile join them (and a higher-priority one overtakes);
                # only this thread pops, so the queue is not empty here
                if not self._directives.wait_slot(self._wedged):
                    return
                groups = self.queue.pop_groups(shape_of, self.batch_limit)
                self._directives.append(
                    lambda i: _JobsDirective(index=i, groups=groups))
                with self._lock:
                    self.stats["directives"] += 1
                    self.stats["groups"] += len(groups)
                    self.stats["batched_groups"] += sum(
                        len(group) > 1 for group in groups)
                    for group in groups:
                        for job in group:
                            job.handle._running = True
                continue
            with self._lock:
                if not (self._shutting_down and not self._join_requests
                        and not len(self.queue)):
                    continue
            self._directives.append(lambda i: _ShutdownDirective(index=i))
            return

    # -- watchdog -----------------------------------------------------------

    def _monitor_main(self) -> None:
        directive = self._directives.overdue(self.job_timeout, self._wedged)
        if directive is None:
            return
        stacks = thread_stacks(self._threads)
        jobs = ", ".join(job.label for group in directive.groups
                         for job in group)
        self._wedge(RunTimeout(
            f"cluster directive #{directive.index} ({jobs}) exceeded its "
            f"{self.job_timeout:g}s job watchdog; {len(stacks)} rank(s) "
            f"still running. Per-rank stacks:\n{format_stacks(stacks)}",
            stacks,
        ))

    def _wedge(self, error: BaseException) -> None:
        """Fail the stream: reject outstanding handles, stop accepting work."""
        with self._lock:
            if self._wedge_error is None:
                self._wedge_error = error
        self.queue.close(f"the cluster is wedged: {error}")
        self._wedged.set()
        self._directives.wake()
        with self._lock:
            self._dispatch_cv.notify_all()
        with self._admission_cv:
            self._admission_cv.notify_all()
        self._reject_unsettled(error)

    def _reject_unsettled(self, error: BaseException) -> None:
        with self._lock:
            pending = list(self._unsettled)
        for handle in pending:
            handle._settle(("err", error))

    # -- service ranks ------------------------------------------------------

    def _rank_main(self, world_rank: int) -> None:
        schedule_rank_thread()
        if self._fuzzer is not None:
            self._fuzzer.pause("spawn")
        try:
            shards: list = []
            if world_rank < self.num_ranks:
                cursor, members, generation = 0, tuple(
                    range(self.num_ranks)), 0
            else:
                admitted = self._await_admission(world_rank)
                if admitted is None:
                    return
                cursor, members, generation = admitted
            while True:
                scope = self._build_scope(world_rank, generation, members,
                                          shards)
                outcome = self._serve(world_rank, scope, cursor)
                if outcome is None:
                    return
                cursor, members, generation = outcome
                shards = scope.shards
        except ProcessKilled:
            pass                     # the campaign already marked us failed
        except BaseException as exc:  # noqa: BLE001 - wedge, don't vanish
            if not self._wedged.is_set():
                self._wedge(ClusterError(
                    f"service rank {world_rank} failed: "
                    f"{type(exc).__name__}: {exc}"))

    def _await_admission(self, world_rank: int
                         ) -> Optional[tuple[int, tuple[int, ...], int]]:
        """Park until a join directive admits this spare; ``None`` once the
        cluster wedges, or shuts down before :meth:`add_rank` claimed it (a
        claimed spare's join precedes the shutdown directive in the log)."""
        with self._admission_cv:
            while world_rank not in self._admission:
                if self._wedged.is_set() or (
                        self._shutting_down and world_rank in self._spares):
                    return None
                self._admission_cv.wait()
            return self._admission[world_rank]

    def _build_scope(self, world_rank: int, generation: int,
                     members: tuple[int, ...], shards: list
                     ) -> ResilientScope:
        state = self.machine.get_or_create_comm(
            ("cluster", generation, members), members)
        raw = RawComm(self.machine, state, world_rank)
        comm = ClusterComm(raw)
        return ResilientScope(
            comm, shards, label=f"cluster-gen{generation}",
            max_attempts=self.max_attempts,
        )

    def _serve(self, world_rank: int, scope: ResilientScope, cursor: int
               ) -> Optional[tuple[int, tuple[int, ...], int]]:
        """Consume directives until a membership change or shutdown.

        Returns ``None`` to stop serving, or ``(next cursor, members,
        generation)`` to rebuild the scope and continue.
        """
        while True:
            directive = self._directives.get(cursor, self._wedged)
            if directive is None or isinstance(directive, _ShutdownDirective):
                return None
            if isinstance(directive, _JoinDirective):
                members = tuple(sorted(
                    set(scope.comm.raw.state.members)
                    | {directive.world_rank}))
                generation = directive.index + 1
                with self._admission_cv:
                    self._admission.setdefault(
                        directive.world_rank,
                        (cursor + 1, members, generation))
                    self._admission_cv.notify_all()
                if scope.comm.raw.rank == 0:
                    with self._lock:
                        self.stats["joins"].append(directive.world_rank)
                return cursor + 1, members, generation
            self._directives.mark_started(directive.index)
            self._execute(scope, directive)
            cursor += 1

    # -- job execution ------------------------------------------------------

    def _execute(self, scope: ResilientScope, directive: _JobsDirective
                 ) -> None:
        """Run one directive under the resilient scope: an epochs job epoch
        by epoch, any other groups in order as one stateless epoch — one
        ``agree`` for all of them, and a failure replays them all."""
        groups = directive.groups
        outcomes: dict[int, tuple[str, Any]] = {}
        job = groups[0][0]
        if job.kind == "epochs":
            for epoch in range(job.epochs):
                scope.run(self._epochs_epoch(job, outcomes, epoch))
        else:
            def run_groups(comm):
                for group in groups:
                    self._on_job_comm(comm, batch_label(group), lambda jc: (
                        self._run_group(jc, group, outcomes)))
            scope.run_stateless(run_groups)
        # the commit is agreement-gated, so every survivor reaches here with
        # the same committed membership; its local rank 0 settles the jobs
        # (no MPI op sits between the commit and this point, and faults fire
        # only at op entries, so the fulfiller cannot die in the window)
        if scope.comm.raw.rank == 0:
            for j in (j for group in groups for j in group):
                j.handle._settle(outcomes.get(j.job_id, ("err", ClusterError(
                    f"job {j.label!r} produced no outcome"))))
            self._directives.mark_finished(directive.index)
            if scope.recovered_from:
                with self._lock:
                    known = set(self.stats["recoveries"])
                    self.stats["recoveries"].extend(
                        w for w in scope.recovered_from if w not in known)

    def _job_comm(self, comm):
        """This rank's job communicator: one dup of the scope communicator,
        rebuilt whenever that changed.  One is enough: every directive ends
        in the scope's ``agree``, a rendezvous of all alive members."""
        base, job_comm = self._job_comms[comm.raw.world_rank]
        if base is not comm.raw:
            job_comm = comm.dup()
            self._job_comms[comm.raw.world_rank] = (comm.raw, job_comm)
        return job_comm

    def _on_job_comm(self, comm, label: str, body: Callable) -> Any:
        """Run ``body(job_comm)`` with ``label`` stamped on its ops.

        A process-failure signal, wrapped or raw, revokes the job dup
        machine-wide and re-raises as ``MPIFailureDetected`` so the scope
        recovers: the scope revokes only its own communicator, which a peer
        blocked on the dup would never see.  The dup's id is deterministic
        (``(comm_id, "dup", 0)``), so the detecting rank revokes it."""
        try:
            job_comm = self._job_comm(comm)
            job_comm.raw._job_label = label
            try:
                return body(job_comm)
            finally:
                job_comm.raw._job_label = None
        except (MPIFailureDetected, RawProcessFailure, RawCommRevoked) as exc:
            raw = comm.raw
            self.machine.get_or_create_comm(
                (raw.comm_id, "dup", 0), raw.state.members).revoke()
            if isinstance(exc, MPIFailureDetected):
                raise
            raise MPIFailureDetected(
                getattr(exc, "failed_ranks", ()), str(exc)) from exc

    @staticmethod
    def _run_group(job_comm, group: tuple[Job, ...], outcomes: dict) -> None:
        """Run a ``call`` job or a batch, recording each job's outcome."""
        job = group[0]
        if job.kind != "call":
            for j, outcome in zip(group, run_batch(job_comm, group)):
                outcomes[j.job_id] = outcome
            return
        try:
            value = job.fn(job_comm, *job.args)
        except (MPIFailureDetected, RawProcessFailure, RawCommRevoked,
                RawDeadlockError):
            raise            # runtime signals, never per-job outcomes
        except Exception as exc:  # noqa: BLE001 - captured per job
            outcomes[job.job_id] = ("err", exc)
        else:
            outcomes[job.job_id] = ("ok", value)

    def _epochs_epoch(self, job: Job, outcomes: dict,
                      epoch_index: int) -> Callable:
        def epoch(comm, shards, _epoch):
            def body(job_comm):
                tag = ("job", job.job_id)
                mine = sorted(
                    (key[2], state) for key, state in shards
                    if isinstance(key, tuple) and key[:2] == tag)
                others = [(key, state) for key, state in shards
                          if not (isinstance(key, tuple) and key[:2] == tag)]
                if epoch_index == 0 and not mine:
                    # first attempt seeds from the submission; vkeys are
                    # strided over whatever membership survived to here
                    size = job_comm.raw.size
                    mine = [(vkey, state) for vkey, state
                            in enumerate(job.initial_states)
                            if vkey % size == job_comm.raw.rank]
                updated = job.epoch_fn(job_comm, mine, epoch_index)
                if updated is None:
                    updated = mine
                if epoch_index == job.epochs - 1:
                    rows = job_comm._guard(
                        lambda: job_comm.raw.gather(updated, 0))
                    if rows is not None:
                        final = sorted(pair for row in rows for pair in row)
                        outcomes[job.job_id] = (
                            "ok", [state for _, state in final])
                    return others
                return others + [(tag + (vkey,), state)
                                 for vkey, state in updated]
            return self._on_job_comm(comm, job.label, body)
        return epoch
