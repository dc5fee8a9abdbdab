"""Threads-as-ranks execution backend (the seed runtime's original engine).

One daemon thread per rank, all sharing a single :class:`~repro.mpi.machine.
Machine`: mailboxes are plain in-process queues, collectives run over them,
and the virtual clocks advance deterministically.  Because everything shares
one address space, this backend is the only one that supports the
introspection and chaos machinery — MPIsan resource auditing, the seeded
schedule fuzzer, fault-injection campaigns, RMA windows, and ULFM failure
coordination — which makes it the deterministic debug target the process
backend is differentially tested against (``tests/backends/``).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Optional, Sequence

from repro.mpi.backends.base import Backend
from repro.mpi.costmodel import CostModel
from repro.mpi.engine import CollectiveEngine
from repro.mpi.errors import (
    ProcessKilled,
    RawDeadlockError,
    RawProcessFailure,
    RawUsageError,
    RunTimeout,
)
from repro.mpi.machine import Machine, RunResult, _emit_leak_events
from repro.mpi.watchdog import format_stacks, thread_stacks
from repro.mpi.sanitizer import (
    LeakReport,
    ResourceAuditor,
    ResourceLeakError,
    ScheduleFuzzer,
    env_fuzz_seed_default,
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
            timeout: Optional[float] = None,
            trace: bool | TraceRecorder = False,
            engine: Optional[CollectiveEngine] = None,
            sanitize: Optional[bool] = None,
            fuzz_seed: Optional[int] = None,
            faults: Any = None) -> RunResult:
        from repro.mpi.context import RawComm

        if timeout is not None and timeout <= 0:
            raise RawUsageError(f"timeout must be > 0 seconds, got {timeout}")

        tracer: Optional[TraceRecorder]
        if isinstance(trace, TraceRecorder):
            tracer = trace
        elif trace:
            tracer = TraceRecorder(num_ranks)
        else:
            tracer = None

        if sanitize is None:
            sanitize = env_sanitize_default()
        if fuzz_seed is None:
            fuzz_seed = env_fuzz_seed_default()
        auditor = ResourceAuditor() if sanitize else None
        fuzzer = ScheduleFuzzer(fuzz_seed) if fuzz_seed is not None else None

        machine = Machine(num_ranks, cost_model=cost_model, deadline=deadline,
                          tracer=tracer, engine=engine, auditor=auditor,
                          fuzzer=fuzzer, faults=faults)
        values: list[Any] = [None] * num_ranks
        errors: list[Optional[BaseException]] = [None] * num_ranks

        def worker(world_rank: int) -> None:
            if fuzzer is not None:
                fuzzer.pause("spawn")
            comm = RawComm(machine, machine.world, world_rank)
            try:
                values[world_rank] = fn(comm, *args)
            except ProcessKilled:
                machine.mark_failed(world_rank)
            except BaseException as exc:  # noqa: BLE001 - report to the driver
                machine.abort(world_rank)  # peers blocked on us fail now
                errors[world_rank] = exc

        threads = [
            threading.Thread(target=worker, args=(r,), name=f"rank-{r}",
                             daemon=True)
            for r in range(num_ranks)
        ]
        for t in threads:
            t.start()
        # the run watchdog (timeout=) bounds the *whole run* in real seconds
        # and replaces the per-thread deadlock join budget; either way a rank
        # that never terminates becomes a diagnosable error, not a hang
        expiry = (time.monotonic() + timeout) if timeout is not None else None
        for t in threads:
            if expiry is None:
                t.join(timeout=deadline + 30.0)
                if t.is_alive():
                    raise RawDeadlockError(
                        f"{t.name} did not terminate (deadlock?)")
            else:
                t.join(timeout=max(expiry - time.monotonic(), 0.0))
                if t.is_alive():
                    stacks = thread_stacks(threads)
                    raise RunTimeout(
                        f"run exceeded its {timeout:g}s watchdog; "
                        f"{len(stacks)} rank(s) still running. Per-rank "
                        f"stacks:\n{format_stacks(stacks)}",
                        stacks,
                    )

        # Prefer primary errors: a raising rank aborts, so the peers blocked
        # on it see a process failure (which the bindings re-raise as their
        # own type, chained) or, blocked elsewhere, hit the deadlock
        # deadline; the root cause is the original exception (same policy as
        # the process backend).
        def _priority(item):
            exc = item[1]
            while exc is not None:
                if isinstance(exc, (RawProcessFailure, RawDeadlockError)):
                    return 1
                exc = exc.__context__
            return 0

        raised = [(rank, exc) for rank, exc in enumerate(errors)
                  if exc is not None]
        for rank, exc in sorted(raised, key=_priority):
            raise RuntimeError(
                f"rank {rank} raised {type(exc).__name__}: {exc}"
            ) from exc

        leaks: Optional[LeakReport] = None
        if machine.auditor.enabled:
            leaks = machine.auditor.collect(machine)
            if leaks and tracer is not None:
                _emit_leak_events(tracer, leaks)
            # failed ranks tear down mid-operation: report, but don't fail
            # the run
            if leaks and not machine.failed_snapshot():
                raise ResourceLeakError(leaks)

        return RunResult(
            values=values,
            times=[c.now for c in machine.clocks],
            counts=machine.profile,
            comm_seconds=[c.comm_seconds for c in machine.clocks],
            compute_seconds=[c.compute_seconds for c in machine.clocks],
            failed=machine.failed_snapshot(),
            machine=machine,
            trace=tracer,
            leaks=leaks,
            backend=self.name,
        )
