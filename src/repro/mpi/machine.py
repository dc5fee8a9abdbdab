"""The parallel machine: rank threads, communicator registry, failure state.

:func:`run_mpi` is the entry point of the raw runtime: it resolves an
execution backend (:mod:`repro.mpi.backends`; threads-as-ranks by default,
one-OS-process-per-rank with ``backend="process"``), hands each rank a
:class:`~repro.mpi.context.RawComm` for the world communicator, and collects
results, virtual times, and PMPI-style call counts.  The :class:`Machine`
defined here is the one runtime core of every backend: built with no
transport, all its ranks live in this address space (the thread backend, the
cluster service); built over a transport, it is the part of the machine that
lives with the transport's rank (see :mod:`repro.mpi.backends.process`).
"""

from __future__ import annotations

import os
import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Optional, Sequence

from repro.mpi.constants import WORLD_ID
from repro.mpi.costmodel import Clock, CostModel
from repro.mpi.engine import CollectiveEngine
from repro.mpi.errors import RawUsageError, UnsupportedOnBackend, unsupported
from repro.mpi.p2p import Mailbox
from repro.mpi.requests import ArrivalBarrier
from repro.mpi.sanitizer import (
    NULL_AUDITOR,
    LeakReport,
    NullAuditor,
    ResourceAuditor,
    ResourceLeakError,
    ScheduleFuzzer,
    env_fuzz_seed_default,
)
from repro.mpi.tracing import NULL_TRACER, NullTraceRecorder, TraceEvent, TraceRecorder
from repro.mpi.waiting import Gate, WaitContext


class CommState:
    """State of one communicator: every member's endpoint, as seen from here."""

    def __init__(self, machine: "Machine", comm_id: Hashable,
                 members: Sequence[int],
                 topology: Optional[dict[int, tuple[tuple[int, ...], tuple[int, ...]]]] = None):
        self.machine = machine
        self.comm_id = comm_id
        #: world ranks of the members; local rank == index
        self.members: tuple[int, ...] = tuple(members)
        self.local_of_world = {w: i for i, w in enumerate(self.members)}
        #: what every blocking wait on this communicator looks at when woken
        self.waits = WaitContext(machine.deadline, machine, self.members)
        transport = machine.transport
        #: per local rank where a send to it is deposited: the member's
        #: mailbox if it lives here, else the transport's outbox to it
        self.mailboxes: dict[int, Any] = {
            local: (Mailbox(self.waits)
                    if transport is None or world == transport.rank
                    else transport.outbox(comm_id, world))
            for local, world in enumerate(self.members)}
        self.barrier = ArrivalBarrier(comm_id, machine, self.waits)
        #: per-local-rank (sources, destinations) for dist-graph communicators
        self.topology = topology

    def revoke(self) -> None:
        """Mark the communicator unusable and wake its parked members."""
        self.waits.revoked = True
        self.waits.interrupt()

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass
class RunResult:
    """Outcome of a :func:`run_mpi` execution."""

    #: per-rank return values (``None`` for ranks that died)
    values: list[Any]
    #: per-rank virtual clocks at completion (seconds)
    times: list[float]
    #: per-rank PMPI-style call counters
    counts: list[Counter]
    #: per-rank virtual seconds attributed to communication
    comm_seconds: list[float]
    #: per-rank virtual seconds attributed to local computation
    compute_seconds: list[float]
    #: world ranks that died during the run
    failed: frozenset[int] = frozenset()
    machine: Optional["Machine"] = None
    #: structured event trace (``None`` unless the run enabled tracing)
    trace: Optional[TraceRecorder] = None
    #: MPIsan finalize-time leak report (``None`` unless the run was
    #: sanitized; empty reports are falsy)
    leaks: Optional[LeakReport] = None
    #: name of the execution backend that produced this result
    backend: str = "thread"
    #: communication-plan IR report (``None`` unless the run used ``ir=``);
    #: an :class:`~repro.mpi.ir.driver.IRReport` with the recorded epoch,
    #: pass results, and — under ``ir="optimize"`` — the verified replay
    ir: Optional[Any] = None
    #: the :class:`~repro.mpi.autotune.AutoTuner` that observed this run
    #: (``None`` unless the run enabled autotuning)
    autotune: Optional[Any] = None

    @property
    def max_time(self) -> float:
        """Simulated makespan: the latest per-rank virtual clock."""
        return max(self.times) if self.times else 0.0

    def total_calls(self, op: str) -> int:
        """Total number of raw calls of kind ``op`` across ranks."""
        return sum(c.get(op, 0) for c in self.counts)

    def op_bytes(self, *, by_algorithm: bool = False
                 ) -> dict[str, dict[str, float]]:
        """Per-op ``{calls, sent, recvd, bytes, seconds}`` aggregates.

        ``by_algorithm=True`` splits collectives by the algorithm the engine
        selected, keyed ``"op[algorithm]"``.  Empty when the run was not
        traced (``run_mpi(..., trace=True)``).
        """
        if self.trace is None:
            return {}
        return self.trace.per_op_totals(by_algorithm=by_algorithm)

    def algorithms_used(self) -> dict[str, tuple[str, ...]]:
        """``{op: algorithm names}`` the engine selected during a traced run."""
        return self.trace.algorithms_used() if self.trace is not None else {}

    def chrome_trace(self) -> dict[str, Any]:
        """Chrome trace-event JSON of the run (requires ``trace=True``)."""
        if self.trace is None:
            raise RawUsageError(
                "chrome_trace() requires running with trace=True"
            )
        return self.trace.to_chrome_trace()


class Machine:
    """A parallel machine of ``num_ranks`` ranks — all of it, or with a
    ``transport`` the part that lives with rank ``transport.rank``.

    All the core uses of a transport: ``rank``, ``outbox(comm_id, world)``
    (its ``deposit(env)`` delivers to that rank's mailbox), ``send(world,
    msg)`` (a control message to that rank's machine), ``stash(comm_id,
    msg)`` / ``drain(state)`` (hold, then hand over, what arrived for a
    communicator before it existed here) and ``abort()`` (tell every other
    rank this one's ``fn`` raised).
    """

    def __init__(self, num_ranks: int, cost_model: Optional[CostModel] = None,
                 deadline: float = 120.0,
                 tracer: Optional[TraceRecorder] = None,
                 engine: Optional["CollectiveEngine"] = None,
                 auditor: Optional[ResourceAuditor] = None,
                 fuzzer: Optional[ScheduleFuzzer] = None,
                 faults=None, transport=None):
        if num_ranks < 1:
            raise RawUsageError(f"num_ranks must be >= 1, got {num_ranks}")
        self.num_ranks = num_ranks
        #: ``None``: every rank lives in this address space
        self.transport = transport
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.deadline = deadline
        #: MPIsan resource auditor; the no-op singleton unless sanitizing
        self.auditor: ResourceAuditor | NullAuditor = (
            auditor if auditor is not None else NULL_AUDITOR
        )
        #: seeded schedule fuzzer (``None`` outside fuzzed runs); must be set
        #: before any CommState builds its wait context
        self.fuzzer = fuzzer
        #: collective algorithm selector; the default engine reads the
        #: REPRO_COLL_* environment and uses the seed's static algorithm table
        self.engine: "CollectiveEngine" = (
            engine if engine is not None else CollectiveEngine(self.cost_model)
        )
        self.clocks = [Clock(self.cost_model) for _ in range(num_ranks)]
        self.profile: list[Counter] = [Counter() for _ in range(num_ranks)]
        #: structured event recorder; the no-op singleton unless tracing is on
        self.tracer: TraceRecorder | NullTraceRecorder = (
            tracer if tracer is not None else NULL_TRACER
        )
        self._registry_lock = threading.Lock()
        self._comms: dict[Hashable, CommState] = {}
        self._failed_lock = threading.Lock()
        #: failed world ranks; replaced whole, never mutated: read without a lock
        self.failed: frozenset[int] = frozenset()
        self._shrink_lock = threading.Lock()
        #: per unsettled rendezvous key: ``[flag, gate, result]`` of each
        #: arrived rank; a settled key leaves nothing behind
        self._shrink_arrivals: dict[Hashable, dict[int, list]] = {}
        self.world = self.get_or_create_comm(WORLD_ID, range(num_ranks))
        #: active fault-injection campaign (``None`` outside injected runs);
        #: attach last — it wires itself into the engine's fault hook
        self.faults = faults
        if faults is not None:
            faults.attach(self)

    # -- backend feature contract ------------------------------------------

    def require(self, feature: str, what: str) -> None:
        """Assert a feature built on one shared address space is available.

        RMA windows, ULFM failure coordination and failure injection read and
        write other ranks' state directly, so they exist only where every
        rank lives here; over a transport they raise
        :class:`~repro.mpi.errors.UnsupportedOnBackend` with an actionable
        message instead of silently misbehaving.
        """
        if self.transport is not None:
            raise UnsupportedOnBackend(
                unsupported(feature, what, "over a transport"))

    # -- communicator registry -------------------------------------------

    def get_or_create_comm(self, comm_id: Hashable, members: Sequence[int],
                           topology=None) -> CommState:
        """Idempotently create a communicator; all members derive the same id."""
        with self._registry_lock:
            state = self._comms.get(comm_id)
            if state is None:
                state = CommState(self, comm_id, members, topology)
                self._comms[comm_id] = state
                if self.transport is not None:
                    self.transport.drain(state)
            elif state.members != tuple(members):
                raise RawUsageError(
                    f"communicator id {comm_id!r} re-created with different members"
                )
            return state

    def comm_or_stash(self, comm_id: Hashable, msg: tuple) -> Optional[CommState]:
        """For the transport's pump: the communicator ``msg`` is addressed
        to — or ``None``, with ``msg`` handed to ``transport.stash`` under
        the lock ``get_or_create_comm`` drains under, so it cannot be missed."""
        with self._registry_lock:
            state = self._comms.get(comm_id)
            if state is None:
                self.transport.stash(comm_id, msg)
            return state

    # -- failures (substrate for ULFM) ------------------------------------

    def mark_failed(self, world_rank: int) -> None:
        """Record the failure and deliver it: every parked wait re-runs its
        checks, a rendezvous only the failed rank was missing from completes."""
        with self._failed_lock:
            self.failed = self.failed | {world_rank}
        with self._registry_lock:
            states = list(self._comms.values())
        for state in states:
            state.waits.interrupt()
        with self._shrink_lock:
            for key in list(self._shrink_arrivals):
                self._settle(key)

    def abort(self, world_rank: int) -> None:
        """``world_rank``'s ``fn`` raised: to its peers it is a failed rank,
        so whoever is blocked on it raises at once instead of at the
        deadline (peers living elsewhere ``mark_failed`` it when told)."""
        self.mark_failed(world_rank)
        if self.transport is not None:
            self.transport.abort()

    def rendezvous(self, state: CommState, key: Hashable, world_rank: int,
                   flag: bool = True, what: str = "shrink agreement"
                   ) -> tuple[tuple[int, ...], bool]:
        """Agreement among the surviving members of ``state``.

        All of them call this with the same ``key``; every caller receives
        the identical ``(sorted alive world ranks, AND of the flags)`` —
        ``shrink`` uses the first, ``agree`` the second.  This is
        machine-level coordination — exactly the role the network-level ULFM
        agreement protocol plays on a real system.  Every arrival records its
        flag; the one that completes the alive set — or ``mark_failed``
        shrinking that set — hands each arrival the result and lets it
        through.  The machine keeps nothing of a settled rendezvous, so a
        key used again is a fresh agreement.  It runs *on* a revoked
        communicator, so revocation does not end it.
        """
        key = (state.comm_id, key)
        slot = [flag, Gate(), None]
        with self._shrink_lock:
            self._shrink_arrivals.setdefault(key, {})[world_rank] = slot
            self._settle(key)
        state.waits.park(slot[1], (), None, f"{what} never completed")
        return slot[2]

    def _settle(self, key: Hashable) -> None:
        """Under the lock: once every alive member has arrived at rendezvous
        ``key``, hand the arrived its result and let them through."""
        arrived = self._shrink_arrivals[key]
        alive = sorted(set(self._comms[key[0]].members) - self.failed)
        if all(w in arrived for w in alive):
            result = (tuple(alive), all(arrived[w][0] for w in alive))
            for slot in self._shrink_arrivals.pop(key).values():
                slot[2] = result
                slot[1].open()


def audit_leaks(machine: Machine, *, failed: bool) -> Optional[LeakReport]:
    """The leak audit every run and every cluster ends in.

    ``None`` on an unsanitized machine, else the report, with a trace event
    per leak on a traced one.  Raised as :class:`ResourceLeakError` iff the
    run saw no failure: a failed rank tears down mid-operation, so its
    leftovers are reported, not fatal.
    """
    if not machine.auditor.enabled:
        return None
    leaks = machine.auditor.collect(machine)
    if leaks and machine.tracer is not NULL_TRACER:
        _emit_leak_events(machine.tracer, leaks)
    if leaks and not failed:
        raise ResourceLeakError(leaks)
    return leaks


def _emit_leak_events(tracer: TraceRecorder, leaks: LeakReport) -> None:
    """Surface leaks in the structured trace (``op="leak:<kind>"``).

    Zero-duration events stamped at each owning rank's final virtual clock
    position, so the Chrome-trace export shows every leak at the end of the
    leaking rank's swim-lane next to the byte accounting.
    """
    for rec in leaks:
        if not 0 <= rec.world_rank < tracer.num_ranks:
            continue  # defensive: unattributable record
        last = tracer.events_for(rec.world_rank)
        t = last[-1].t_end if last else 0.0
        tracer._append(TraceEvent(
            op=f"leak:{rec.kind}",
            world_rank=rec.world_rank,
            rank=rec.rank,
            comm=rec.comm,
            peers=(rec.peer,) if rec.peer is not None and rec.peer >= 0 else (),
            tag=rec.tag,
            sent=0,
            recvd=0,
            t_start=t,
            t_end=t,
            algorithm=None,
        ))


def run_mpi(fn: Callable[..., Any], num_ranks: int, *,
            args: Sequence[Any] = (),
            cost_model: Optional[CostModel] = None,
            deadline: float = 120.0,
            timeout: Optional[float] = None,
            trace: bool | TraceRecorder = False,
            engine: Optional[CollectiveEngine] = None,
            sanitize: Optional[bool] = None,
            fuzz_seed: Optional[int] = None,
            faults=None,
            backend: Optional[str | "Backend"] = None,
            ir: Optional[str] = None,
            autotune: Any = None) -> RunResult:
    """Execute ``fn(comm, *args)`` on ``num_ranks`` ranks and collect results.

    ``fn`` receives the rank's raw world communicator
    (:class:`~repro.mpi.context.RawComm`).  Exceptions other than injected
    process failures are re-raised in the caller, annotated with the rank.

    ``backend`` selects the execution backend (default: the ``REPRO_BACKEND``
    environment variable, else ``"thread"``).  ``"thread"`` runs ranks as
    threads of this process — the deterministic debug/fuzz/virtual-time
    target.  ``"process"`` runs each rank in its own OS process, one simplex
    pipe per ordered rank pair, escaping the GIL for genuinely parallel
    execution; payloads, ``fn``, ``args``, and return values must then be
    picklable, and thread-backend-only features (MPIsan, fault injection,
    the run watchdog, RMA, ULFM) raise
    :class:`~repro.mpi.errors.UnsupportedOnBackend`.  See
    :mod:`repro.mpi.backends` and DESIGN §12.

    ``timeout`` arms the run watchdog: if the whole run has not finished
    after that many *real* seconds, it raises
    :class:`~repro.mpi.errors.RunTimeout` carrying the per-rank stack dumps
    of the still-running ranks (:mod:`repro.mpi.watchdog`) — the library
    version of the test suite's conftest watchdog, so a wedged run fails
    loudly instead of stalling its caller.  Thread backend only: the process
    backend cannot dump another OS process's stacks and refuses the
    parameter.

    ``trace=True`` records a structured per-rank event trace (one event per
    raw MPI call) available as ``result.trace``; pass an existing
    :class:`~repro.mpi.tracing.TraceRecorder` to share one across runs.

    ``engine`` selects collective algorithms per call; the default reads
    ``REPRO_COLL_*`` overrides from the environment and otherwise keeps the
    static seed algorithms (see :class:`~repro.mpi.engine.CollectiveEngine`).

    ``sanitize=True`` (default: the ``REPRO_SANITIZE`` env var) runs MPIsan:
    every request, posted receive, unexpected envelope, buffer poison, and
    RMA lock is tracked, and a clean run that leaves any behind raises
    :class:`~repro.mpi.sanitizer.ResourceLeakError` at teardown (the report
    is also available as ``result.leaks`` and, on traced runs, as
    ``leak:<kind>`` trace events).  Runs with failed/errored ranks only
    report, never raise — their teardown is legitimately dirty.

    ``fuzz_seed`` (default: the ``REPRO_FUZZ_SEED`` env var) enables the
    seeded schedule fuzzer: deterministic per-rank delivery delays and
    park-timeout jitter that perturb real-time interleaving without touching
    virtual time (see :class:`~repro.mpi.sanitizer.ScheduleFuzzer`), on
    either backend.

    ``faults`` attaches a :class:`~repro.mpi.faultinject.FaultCampaign`
    that kills or slows ranks at counted-operation entries, between the p2p
    rounds of collective schedules, at scripted checkpoints, or by seeded
    random draws (seed default: ``REPRO_FAULT_SEED``); injected faults show
    up as ``fault:<kind>`` events on traced runs.

    ``ir`` activates the communication-plan IR (default: the ``REPRO_IR``
    env var; ``"off"``/unset disables).  ``ir="record"`` journals every raw
    op into an :class:`~repro.mpi.ir.nodes.Epoch` attached as ``result.ir``;
    ``ir="optimize"`` additionally runs the rewrite pipeline
    (:mod:`repro.mpi.ir.passes`) over the epoch and replays the optimized
    graph, verifying it bit-identical against the recording.

    ``autotune`` closes the measure→fit→install loop
    (:mod:`repro.mpi.autotune`; default: the ``REPRO_AUTOTUNE`` env var):
    pass ``True``, a store path, or an
    :class:`~repro.mpi.autotune.AutoTuner`.  Learned tuning rules for this
    run's communicator size are installed before the run (warm start — the
    engine is created if needed), the run is traced, its collective timings
    are folded back into the tuner, and the store is re-persisted; the tuner
    rides along as ``result.autotune``.  ``autotune=False`` disables even
    when the env var is set.
    """
    tuner = None
    if autotune is not None or os.environ.get("REPRO_AUTOTUNE"):
        from repro.mpi.autotune import resolve_autotune

        tuner = resolve_autotune(autotune)
    if tuner is not None:
        if engine is None:
            engine = CollectiveEngine(
                cost_model if cost_model is not None else CostModel())
        tuner.install(engine, p=num_ranks)
        if trace is False:
            trace = True
    mode = ir if ir is not None else os.environ.get("REPRO_IR")
    if mode and mode != "off":
        from repro.mpi.ir.driver import run_with_ir

        result = run_with_ir(
            fn, num_ranks, mode=mode, args=args,
            cost_model=cost_model, deadline=deadline, timeout=timeout,
            trace=trace, engine=engine, sanitize=sanitize,
            fuzz_seed=fuzz_seed, faults=faults, backend=backend,
        )
    else:
        from repro.mpi.backends import resolve_backend

        if fuzz_seed is None:
            fuzz_seed = env_fuzz_seed_default()
        result = resolve_backend(backend).run(
            fn, num_ranks, args=args, cost_model=cost_model,
            deadline=deadline, timeout=timeout, trace=trace, engine=engine,
            sanitize=sanitize, fuzz_seed=fuzz_seed, faults=faults,
        )
    if tuner is not None:
        tuner.observe(result)
        if tuner.path is not None:
            tuner.save()
        result.autotune = tuner
    return result
