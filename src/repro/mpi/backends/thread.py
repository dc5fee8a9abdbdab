"""Threads-as-ranks execution backend (the seed runtime's original engine).

One daemon thread per rank, all sharing a single :class:`~repro.mpi.machine.
Machine` built with no transport: mailboxes are plain in-process queues,
collectives run over them, and the virtual clocks advance deterministically.
Because everything shares one address space, this backend is the only one
that supports the introspection and chaos machinery — MPIsan resource
auditing, fault-injection campaigns and ULFM failure coordination — which
makes it the deterministic debug target the process backend is
differentially tested against (``tests/backends/``).  It is also where a
hang shows the most: a rank's :class:`~repro.mpi.errors.RawDeadlockError`
carries the stacks of every rank thread.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Optional, Sequence

from repro.mpi.backends.base import (
    RUN_GRACE,
    Backend,
    RankReport,
    resolve_tracer,
    schedule_rank_thread,
)
from repro.mpi.costmodel import CostModel
from repro.mpi.engine import CollectiveEngine
from repro.mpi.errors import ProcessKilled, RawDeadlockError
from repro.mpi.machine import Machine, RunResult
from repro.mpi.watchdog import attach_stacks, format_stacks, thread_stacks
from repro.mpi.sanitizer import (
    ResourceAuditor,
    ScheduleFuzzer,
    env_sanitize_default,
)
from repro.mpi.tracing import TraceRecorder


class ThreadBackend(Backend):
    """Run ranks as threads of the calling process (deterministic target)."""

    name = "thread"

    def run(self, fn: Callable[..., Any], num_ranks: int, *,
            args: Sequence[Any] = (),
            cost_model: Optional[CostModel] = None,
            deadline: float = 120.0,
            trace: bool | TraceRecorder = False,
            engine: Optional[CollectiveEngine] = None,
            sanitize: Optional[bool] = None,
            fuzz_seed: Optional[int] = None,
            faults: Any = None) -> RunResult:
        from repro.mpi.context import RawComm

        tracer = resolve_tracer(trace, num_ranks)
        if sanitize is None:
            sanitize = env_sanitize_default()
        auditor = ResourceAuditor() if sanitize else None
        fuzzer = ScheduleFuzzer(fuzz_seed) if fuzz_seed is not None else None

        machine = Machine(num_ranks, cost_model=cost_model, deadline=deadline,
                          tracer=tracer, engine=engine, auditor=auditor,
                          fuzzer=fuzzer, faults=faults)
        values: list[Any] = [None] * num_ranks
        errors: list[Optional[BaseException]] = [None] * num_ranks
        details = [""] * num_ranks

        def worker(world_rank: int) -> None:
            schedule_rank_thread()
            if fuzzer is not None:
                fuzzer.pause("spawn")
            comm = RawComm(machine, machine.world, world_rank)
            try:
                values[world_rank] = fn(comm, *args)
            except ProcessKilled:
                machine.mark_failed(world_rank)
            except BaseException as exc:  # noqa: BLE001 - report to the driver
                details[world_rank] = attach_stacks(exc, threads)
                machine.abort(world_rank)  # peers blocked on us fail now
                errors[world_rank] = exc

        threads = [
            threading.Thread(target=worker, args=(r,), name=f"rank-{r}",
                             daemon=True)
            for r in range(num_ranks)
        ]
        expiry = time.monotonic() + deadline + RUN_GRACE
        for t in threads:
            t.start()
        hung = None
        for t in threads:
            t.join(max(expiry - time.monotonic(), 0.0))
            if t.is_alive():
                stacks = thread_stacks(threads)
                hung = RawDeadlockError(
                    f"{t.name} did not terminate within {deadline:g}s + "
                    f"{RUN_GRACE:g}s of launch; {len(stacks)} rank(s) still "
                    f"running. Per-rank stacks:\n{format_stacks(stacks)}",
                    stacks)
                break
        reports = [RankReport.of(machine, r, values[r], errors[r], details[r])
                   for r in range(num_ranks)]
        if hung is not None:
            try:
                raise hung
            except RawDeadlockError:
                # a rank that raised is the root cause; the hang, with the
                # stuck ranks' stacks, stays reachable as its __context__
                if any(errors):
                    self.finish(reports, tracer, machine)
                raise
        return self.finish(reports, tracer, machine)
