"""The execution-backend contract.

A :class:`Backend` turns ``run_mpi(fn, p)`` into ``p`` concurrently-running
ranks and a :class:`~repro.mpi.machine.RunResult`.  The binding layers above
(:class:`~repro.mpi.context.RawComm` and everything in :mod:`repro.core`)
only consume MPI *semantics* — mailbox matching, collectives, communicator
management — and :class:`~repro.mpi.machine.Machine` implements those once,
for every backend (the core/interface split KaMPIng argues for).  A backend
decides where the ranks live and supplies:

- the **machine**: one ``Machine`` for all ranks where they share an address
  space, or one per rank built over a **transport** where they do not (the
  five names ``Machine`` documents; the transport calls back with what
  arrives: ``Mailbox.deposit``, ``ArrivalBarrier.record`` / ``complete``,
  ``Machine.mark_failed``);
- one :class:`RankReport` per rank, handed to :meth:`Backend.finish`, the
  epilogue every ``run()`` ends in.

Features that need one shared address space must *fail loudly* elsewhere by
raising :class:`~repro.mpi.errors.UnsupportedOnBackend` with an actionable
message — silent degradation is a conformance bug (the differential suite
under ``tests/backends/`` checks observational equivalence of everything
that is supported).
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from repro.mpi.costmodel import Clock, CostModel
from repro.mpi.engine import CollectiveEngine
from repro.mpi.errors import RawDeadlockError, RawProcessFailure
from repro.mpi.machine import Machine, RunResult, audit_leaks
from repro.mpi.tracing import TraceEvent, TraceRecorder

#: real seconds a run may outlast its ``deadline``.  Every wait ends by the
#: deadline, so a run still going at ``deadline + RUN_GRACE`` after launch
#: has a rank stuck outside any wait: its backend ends the run there with
#: :class:`~repro.mpi.errors.RawDeadlockError`.
RUN_GRACE = 30.0


def resolve_tracer(trace: bool | TraceRecorder,
                   num_ranks: int) -> Optional[TraceRecorder]:
    """``run(trace=...)``: the caller's recorder, a fresh one, or none."""
    if isinstance(trace, TraceRecorder):
        return trace
    return TraceRecorder(num_ranks) if trace else None


def schedule_rank_thread() -> None:
    """Put the calling rank thread under ``SCHED_BATCH`` (Linux; elsewhere,
    or if refused, a no-op), which turns off wake-up preemption for it alone.

    A rank that wakes a peer still holds the GIL.  Without this, the woken
    thread preempts its waker on a shared CPU, blocks on the GIL at once and
    runs only once the waker parks: three context switches per hand-off where
    one does.  Call it first thing in a rank thread and nowhere else — not on
    the caller's thread."""
    try:
        os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
    except (AttributeError, OSError):
        pass


@dataclass
class RankReport:
    """What one rank contributes to the outcome of a run.  Built where the
    rank ran, while the exception object (if any) still exists; without
    ``cause`` it pickles, given a picklable ``value``."""

    value: Any
    #: ``"rank <r> raised <type>: <message>"`` plus whatever detail the
    #: backend appends; ``None`` if ``fn`` returned (or the rank was killed)
    error: Optional[str]
    #: the exception behind ``error``, where it can be handed over as it is
    cause: Optional[BaseException]
    #: a consequence of another rank's error: a process failure (also after
    #: the bindings re-raised it as their own type, chained) or a deadline
    secondary: bool
    clock: Clock
    counts: Counter
    #: the rank's trace events where the caller's recorder has not seen them
    events: Optional[list[TraceEvent]] = None

    @classmethod
    def of(cls, machine: Machine, rank: int, value: Any,
           exc: Optional[BaseException], detail: str = "") -> "RankReport":
        """Report on ``rank`` of ``machine``, whose ``fn`` returned ``value``
        or raised ``exc``."""
        error = None
        if exc is not None:
            error = f"rank {rank} raised {type(exc).__name__}: {exc}{detail}"
        secondary, link = False, exc
        while link is not None and not secondary:
            secondary = isinstance(link, (RawProcessFailure, RawDeadlockError))
            link = link.__context__
        return cls(value, error, exc, secondary, machine.clocks[rank],
                   machine.profile[rank])


class Backend:
    """Abstract execution backend: spawn ranks, run ``fn``, collect results."""

    #: registry / ``REPRO_BACKEND`` name of the backend
    name: str = "abstract"

    def run(self, fn: Callable[..., Any], num_ranks: int, *,
            args: Sequence[Any] = (),
            cost_model: Optional[CostModel] = None,
            deadline: float = 120.0,
            trace: bool | TraceRecorder = False,
            engine: Optional[CollectiveEngine] = None,
            sanitize: Optional[bool] = None,
            fuzz_seed: Optional[int] = None,
            faults: Any = None) -> RunResult:
        """Execute ``fn(comm, *args)`` on ``num_ranks`` ranks.

        The keyword surface is exactly :func:`repro.mpi.run_mpi`'s; a backend
        that cannot honor a *requested* feature (an explicit ``sanitize=True``
        rather than an ambient env default, a ``faults`` campaign, …) raises
        :class:`~repro.mpi.errors.UnsupportedOnBackend` before spawning
        anything.  A run still going ``deadline + RUN_GRACE`` seconds after
        launch raises :class:`~repro.mpi.errors.RawDeadlockError`.
        """
        raise NotImplementedError

    def finish(self, reports: Sequence[RankReport],
               tracer: Optional[TraceRecorder],
               machine: Optional[Machine] = None) -> RunResult:
        """The epilogue of every ``run()``: raise the root cause if a rank
        raised, else assemble the result.  ``reports`` is in rank order;
        ``machine`` is the one all ranks shared, where there is one to audit
        and hand back."""
        # stable sort: the lowest rank with a root cause, else the lowest;
        # without a root cause (a deadlock) where every rank stood is the
        # diagnosis, so the report holds every rank's error
        errors = sorted((rep for rep in reports if rep.error is not None),
                        key=lambda rep: rep.secondary)
        if errors:
            first = errors[0]
            raise RuntimeError("\n".join(rep.error for rep in errors)
                               if first.secondary else first.error
                               ) from first.cause
        for rank, rep in enumerate(reports):
            if rep.events:
                tracer._events[rank].extend(rep.events)
        leaks = None
        failed: frozenset[int] = frozenset()
        if machine is not None:
            failed = machine.failed
            leaks = audit_leaks(machine, failed=bool(failed))
        return RunResult(
            values=[rep.value for rep in reports],
            times=[rep.clock.now for rep in reports],
            counts=[rep.counts for rep in reports],
            comm_seconds=[rep.clock.comm_seconds for rep in reports],
            compute_seconds=[rep.clock.compute_seconds for rep in reports],
            failed=failed,
            machine=machine,
            trace=tracer,
            leaks=leaks,
            backend=self.name,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"
