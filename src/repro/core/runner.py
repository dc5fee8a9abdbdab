"""Convenience driver: run a function with a KaMPIng communicator per rank."""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Optional, Sequence, Type

from repro.core.communicator import Communicator
from repro.mpi.costmodel import CostModel
from repro.mpi.engine import CollectiveEngine
from repro.mpi.machine import RunResult, run_mpi
from repro.mpi.tracing import TraceRecorder


def _entry(comm_class: Type[Communicator], fn: Callable[..., Any], raw,
           *fn_args) -> Any:
    """A rank's entry: ``fn`` on its wrapped communicator (module-level, so
    that a spawned process rank can import it)."""
    return fn(comm_class(raw), *fn_args)


def run(fn: Callable[..., Any], num_ranks: int, *,
        args: Sequence[Any] = (),
        cost_model: Optional[CostModel] = None,
        deadline: float = 120.0,
        timeout: Optional[float] = None,
        comm_class: Type[Communicator] = Communicator,
        trace: bool | TraceRecorder = False,
        engine: Optional[CollectiveEngine] = None,
        sanitize: Optional[bool] = None,
        fuzz_seed: Optional[int] = None,
        faults=None,
        backend=None,
        ir: Optional[str] = None) -> RunResult:
    """Execute ``fn(comm, *args)`` on ``num_ranks`` ranks.

    Like :func:`repro.mpi.run_mpi`, but each rank receives a wrapped
    :class:`~repro.core.communicator.Communicator` (optionally a plugin-
    extended subclass via ``comm_class``) instead of the raw handle.
    ``timeout`` arms the run watchdog (a hung run raises
    :class:`~repro.mpi.errors.RunTimeout` with per-rank stack dumps);
    ``trace=True`` records the structured communication trace
    (:class:`~repro.mpi.tracing.TraceRecorder`) as ``result.trace``;
    ``engine`` overrides the collective algorithm selection (see
    :class:`~repro.mpi.engine.CollectiveEngine`); ``sanitize``/``fuzz_seed``
    enable the MPIsan resource auditor and seeded schedule fuzzer (see
    :mod:`repro.mpi.sanitizer`), defaulting to the ``REPRO_SANITIZE`` /
    ``REPRO_FUZZ_SEED`` environment variables; ``faults`` injects a
    :class:`~repro.mpi.faultinject.FaultCampaign`; ``backend`` selects the
    execution backend (``"thread"``/``"process"``, default: the
    ``REPRO_BACKEND`` environment variable — see :mod:`repro.mpi.backends`);
    ``ir`` activates the communication-plan IR (``"record"``/``"optimize"``,
    see :mod:`repro.mpi.ir`).  Recording wraps the raw handle beneath the
    named-parameter layer, so wrapped calls journal exactly the raw ops they
    issue.
    """
    return run_mpi(partial(_entry, comm_class, fn), num_ranks, args=args,
                   cost_model=cost_model, deadline=deadline, timeout=timeout,
                   trace=trace, engine=engine, sanitize=sanitize,
                   fuzz_seed=fuzz_seed, faults=faults, backend=backend, ir=ir)
