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
   revoked/shrunk/agreed away mid-stream and the interrupted directive
   replays on the survivors; a joining spare is admitted at the next
   directive boundary.

Coordination happens through a *directive log* (job groups, joins,
shutdown): every service rank consumes it in order through its own cursor,
and the first rank to reach its end forms the next directive under the
cluster's one lock, so all ranks observe the identical sequence of
collectives whatever the thread schedule — which makes chaos runs
bit-comparable to failure-free runs.  A directive forms only once a rank
has passed the previous one's closing ``agree``, so at most two job
directives are unfinished and jobs submitted meanwhile join the next; a
finished one leaves the log with every directive before it, so the log
holds only what a live rank may still read and a cluster's memory does not
grow with the jobs it has run.

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
from repro.mpi.tracing import TraceRecorder
from repro.mpi.watchdog import format_stacks, thread_stacks
from repro.plugins.resilience import ResilientScope
from repro.plugins.ulfm import ULFM, MPIFailureDetected
from repro.service.batching import batch_label, int_dtype, run_batch, shape_of
from repro.service.jobs import ClusterError, Job, JobHandle, JobQueue

#: the service's communicator class: full bindings + ULFM fault tolerance
ClusterComm = extend(Communicator, ULFM)


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
    """The directives some live member may still read, and the one record
    of the job directives in flight: ``unfinished`` maps each to its start
    time (``None`` until a rank starts it).  Indexes are global and never
    reused; ``log[0]`` is directive ``first``.  Ranks and the watchdog each
    wait on their own condition over the cluster's lock, so a finish does
    not wake the ranks waiting for the next directive."""

    def __init__(self, lock: threading.Lock) -> None:
        self.cv = threading.Condition(lock)        # ranks: the next directive
        self.watch_cv = threading.Condition(lock)  # watchdog: start / finish
        self.log: list[Any] = []
        self.first = 0                             # index of log[0]
        self.unfinished: dict[int, Optional[float]] = {}

    def get(self, index: int, form: Callable[[int], Any],
            give_up: threading.Event) -> Optional[Any]:
        """Directive ``index``; ``None`` once wedged.  A rank at the log's
        end appends what ``form(index)`` returns, parked while that is
        ``None``."""
        with self.cv:
            while self.first + len(self.log) <= index:
                if give_up.is_set():
                    return None
                directive = form(index)
                if directive is None:
                    self.cv.wait()
                    continue
                self.log.append(directive)
                if isinstance(directive, _JobsDirective):
                    self.unfinished[index] = None
                self.cv.notify_all()
            if index < self.first:   # only a rank that missed an agree
                raise ClusterError(f"directive #{index} left the log, which "
                                   f"starts at #{self.first}")
            return self.log[index - self.first]

    def wake(self) -> None:
        with self.cv:
            self.cv.notify_all()
            self.watch_cv.notify_all()

    def mark_started(self, index: int) -> None:
        with self.cv:
            if index in self.unfinished and self.unfinished[index] is None:
                self.unfinished[index] = time.monotonic()
                self.watch_cv.notify()

    def mark_finished(self, index: int) -> None:
        """Directive ``index`` finished: it and every one before it leave
        the log.  Every alive member met in its ``agree``, so each cursor is
        past it, and a spare admitted later enters after its join."""
        with self.cv:
            self.unfinished.pop(index, None)
            if index >= self.first:
                del self.log[:index + 1 - self.first]
                self.first = index + 1
            self.watch_cv.notify()

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
                    return self.log[index - self.first]
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
    directive watchdog; ``hold_jobs=True`` keeps queued jobs out of
    directives until :meth:`release_jobs` (lets tests enqueue a full stream
    first, making batching and chaos runs deterministic).  The machine
    takes the default :class:`~repro.mpi.costmodel.CostModel`, each scope
    the default retry budget, and ``REPRO_FUZZ_SEED`` seeds the schedule
    fuzzer.  The ranks are threads of this process, and so is the watchdog;
    there is no other service thread.
    """

    def __init__(self, num_ranks: int, *, spares: int = 0,
                 queue_depth: int = 64, batch_limit: int = 8,
                 deadline: float = 60.0,
                 job_timeout: Optional[float] = None,
                 trace: bool | TraceRecorder = False,
                 engine: Optional[CollectiveEngine] = None,
                 sanitize: Optional[bool] = None,
                 faults: Any = None,
                 hold_jobs: bool = False):
        if num_ranks < 1:
            raise ClusterError(f"num_ranks must be >= 1, got {num_ranks}")
        if spares < 0:
            raise ClusterError(f"spares must be >= 0, got {spares}")
        if job_timeout is not None and job_timeout <= 0:
            raise ClusterError(
                f"job_timeout must be > 0 seconds, got {job_timeout}")

        #: the cluster's event recorder (``None`` unless traced)
        self.tracer = resolve_tracer(trace, num_ranks + spares)
        if sanitize is None:
            sanitize = env_sanitize_default()
        fuzz_seed = env_fuzz_seed_default()
        auditor = ResourceAuditor() if sanitize else None
        fuzzer = ScheduleFuzzer(fuzz_seed) if fuzz_seed is not None else None

        capacity = num_ranks + spares
        self.machine = Machine(
            capacity, deadline=deadline,
            tracer=self.tracer, engine=engine, auditor=auditor, fuzzer=fuzzer,
            faults=faults)
        self.num_ranks = num_ranks
        self.capacity = capacity
        self.batch_limit = batch_limit
        self.job_timeout = job_timeout

        self.queue = JobQueue(queue_depth)
        self._fuzzer = fuzzer

        # the one lock: the directive log, admission, counters and state
        self._lock = threading.Lock()
        self._directives = _DirectiveLog(self._lock)
        self._job_seq = 0
        self._unsettled: set[JobHandle] = set()
        self._drain_cv = threading.Condition(self._lock)
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
        self._admission_cv = threading.Condition(self._lock)

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
        for t in self._threads:
            t.start()
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
            self.queue.submit(Job(     # may raise ClusterSaturated
                job_id=job_id, kind=kind, priority=priority,
                label=handle.label, handle=handle, **fields))
            self._unsettled.add(handle)
            self.stats["jobs_submitted"] += 1
            self._directives.cv.notify_all()
        return handle

    # -- client API: lifecycle ---------------------------------------------

    def add_rank(self) -> int:
        """Admit one parked spare at the next directive boundary.

        Returns the admitted world rank.  The joiner and the serving ranks
        enter a fresh membership generation together.
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
            self._directives.cv.notify_all()
        return world_rank

    def release_jobs(self) -> None:
        """Let a ``hold_jobs=True`` cluster's queued jobs into directives."""
        with self._lock:
            self._held = False
            self._directives.cv.notify_all()

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
            self._directives.cv.notify_all()
            self._admission_cv.notify_all()  # unclaimed spares stop waiting
        join_budget = timeout if timeout is not None else self.machine.deadline
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

    # -- forming directives -------------------------------------------------

    def _form(self, index: int) -> Optional[Any]:
        """Directive ``index`` for a rank at the log's end, or ``None`` while
        there is nothing to do.  Runs under ``self._lock``, so one rank pops
        each directive's jobs; the queue's own lock is taken after it.  A
        rank gets here only past the previous directive's ``agree``, which
        local rank 0 enters after finishing the one before: at most two job
        directives are unfinished, and jobs queued meanwhile join the next
        (a higher-priority one overtakes)."""
        if self._join_requests:
            return _JoinDirective(index, self._join_requests.pop(0))
        if not self._held:
            groups = self.queue.pop_groups(shape_of, self.batch_limit)
            if groups:
                self.stats["directives"] += 1
                self.stats["groups"] += len(groups)
                self.stats["batched_groups"] += sum(
                    len(group) > 1 for group in groups)
                for group in groups:
                    for job in group:
                        job.handle._running = True
                return _JobsDirective(index, groups)
        if self._shutting_down:
            return _ShutdownDirective(index)
        return None

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
            self._wedged.set()
            self._admission_cv.notify_all()
        self._directives.wake()
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
            if world_rank < self.num_ranks:
                cursor, members, generation = 0, tuple(
                    range(self.num_ranks)), 0
            else:
                admitted = self._await_admission(world_rank)
                if admitted is None:
                    return
                cursor, members, generation = admitted
            while True:
                scope = self._build_scope(world_rank, generation, members)
                outcome = self._serve(world_rank, scope, cursor)
                if outcome is None:
                    return
                cursor, members, generation = outcome
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
                     members: tuple[int, ...]) -> ResilientScope:
        state = self.machine.get_or_create_comm(
            ("cluster", generation, members), members)
        raw = RawComm(self.machine, state, world_rank)
        comm = ClusterComm(raw)
        return ResilientScope(comm, [], label=f"cluster-gen{generation}")

    def _serve(self, world_rank: int, scope: ResilientScope, cursor: int
               ) -> Optional[tuple[int, tuple[int, ...], int]]:
        """Consume directives until a membership change or shutdown.

        Returns ``None`` to stop serving, or ``(next cursor, members,
        generation)`` to rebuild the scope and continue.
        """
        while True:
            directive = self._directives.get(cursor, self._form,
                                             self._wedged)
            if directive is None or isinstance(directive, _ShutdownDirective):
                return None
            if isinstance(directive, _JoinDirective):
                members = tuple(sorted(
                    set(scope.comm.raw.state.members)
                    | {directive.world_rank}))
                generation = directive.index + 1
                with self._lock:
                    self._admission.setdefault(
                        directive.world_rank,
                        (cursor + 1, members, generation))
                    self._admission_cv.notify_all()
                    if scope.comm.raw.rank == 0:
                        self.stats["joins"].append(directive.world_rank)
                return cursor + 1, members, generation
            self._directives.mark_started(directive.index)
            self._execute(scope, directive)
            cursor += 1

    # -- job execution ------------------------------------------------------

    def _execute(self, scope: ResilientScope, directive: _JobsDirective
                 ) -> None:
        """Run one directive's groups in order as one stateless epoch of the
        resilient scope: one ``agree`` for all of them, and a failure replays
        them all."""
        groups = directive.groups
        outcomes: dict[int, tuple[str, Any]] = {}

        traced = self.tracer is not None  # only a span reads the label

        def run_groups(comm):
            for group in groups:
                label = batch_label(group) if traced else None
                self._on_job_comm(comm, label, lambda jc: (
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

    def _on_job_comm(self, comm, label: Optional[str], body: Callable
                     ) -> None:
        """Run ``body(job_comm)`` with ``label`` stamped on its ops
        (``None`` when untraced).

        A process-failure signal, wrapped or raw, revokes the job dup
        machine-wide and re-raises as ``MPIFailureDetected`` so the scope
        recovers: the scope revokes only its own communicator, which a peer
        blocked on the dup would never see.  The dup's id is deterministic
        (``(comm_id, "dup", 0)``), so the detecting rank revokes it."""
        try:
            job_comm = self._job_comm(comm)
            job_comm.raw._job_label = label
            try:
                body(job_comm)
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
