"""Measurement utilities: hierarchical timers and counters.

KaMPIng ships a ``measurements`` module (timer/counter) supporting the
algorithm-engineering workflow the paper describes in §III-C: iterative
refinement of implementations and *analysis through experimentation*.  This
is that module: nested named timers over the virtual clock, counters, and
cross-rank aggregation (min/max/mean/sum via one allreduce per statistic).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.errors import UsageError
from repro.core.named_params import op as op_param
from repro.core.named_params import send_buf
from repro.mpi.ops import MAX, MIN, SUM


class Timer:
    """Hierarchical timer over the communicator's virtual clock.

    Measurements nest: ``start("a"); start("b"); stop(); stop()`` records
    ``a`` and ``a.b``.  ``aggregate()`` reduces every key across ranks.

    ::

        timer = Timer(comm)
        timer.start("exchange")
        comm.alltoallv(...)
        timer.stop()
        stats = timer.aggregate()   # {"exchange": {"min":…, "max":…, "mean":…}}
    """

    def __init__(self, comm):
        self.comm = comm
        self._stack: list[tuple[str, float]] = []
        self._totals: dict[str, float] = {}
        self._counts: dict[str, int] = {}

    def _now(self) -> float:
        return self.comm.raw.clock.now

    def synchronize_and_start(self, name: str) -> None:
        """Barrier, then start — aligns the measurement across ranks."""
        self.comm.barrier()
        self.start(name)

    def start(self, name: str) -> None:
        if "." in name:
            raise UsageError("timer names must not contain '.', it separates levels")
        self._stack.append((name, self._now()))

    def stop(self) -> float:
        """Stop the innermost running timer; returns the elapsed seconds.

        When the run is traced, each stop also records a ``timer:<key>``
        span in the machine's :class:`~repro.mpi.tracing.TraceRecorder`, so
        named phases show up alongside the raw MPI events in the Chrome
        trace.
        """
        if not self._stack:
            raise UsageError("stop() without a running timer")
        name, began = self._stack.pop()
        key = ".".join([n for n, _ in self._stack] + [name])
        now = self._now()
        elapsed = now - began
        self._totals[key] = self._totals.get(key, 0.0) + elapsed
        self._counts[key] = self._counts.get(key, 0) + 1
        raw = self.comm.raw
        tracer = raw.machine.tracer
        if tracer is not None:
            tracer.record(raw, f"timer:{key}", t_start=began, t_end=now)
        return elapsed

    def stop_and_append(self) -> float:
        """Alias matching kamping's ``stop_and_append`` (accumulating stop)."""
        return self.stop()

    class _Scope:
        def __init__(self, timer: "Timer", name: str):
            self.timer, self.name = timer, name

        def __enter__(self):
            self.timer.start(self.name)
            return self.timer

        def __exit__(self, *exc):
            self.timer.stop()
            return False

    def scoped(self, name: str) -> "_Scope":
        """Context-manager form: ``with timer.scoped("phase"): ...``."""
        return self._Scope(self, name)

    def local(self) -> dict[str, dict[str, float]]:
        """This rank's accumulated measurements (no communication)."""
        return {
            key: {"total": total, "count": self._counts[key]}
            for key, total in self._totals.items()
        }

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Reduce every key across ranks: min / max / mean / sum.

        Collective: all ranks must call it with the same set of keys (start
        every timer on every rank, even if the timed region is empty there).
        """
        if self._stack:
            raise UsageError(
                f"aggregate() with timers still running: "
                f"{[n for n, _ in self._stack]}"
            )
        out: dict[str, dict[str, float]] = {}
        for key in sorted(self._totals):
            value = self._totals[key]
            out[key] = _aggregate_value(self.comm, value)
        return out


class Counter:
    """Named counters with cross-rank aggregation (kamping's counter analog)."""

    def __init__(self, comm):
        self.comm = comm
        self._values: dict[str, float] = {}

    def add(self, name: str, value: float = 1) -> None:
        self._values[name] = self._values.get(name, 0) + value

    def local(self) -> dict[str, float]:
        return dict(self._values)

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Collective min/max/mean/sum of every counter across ranks."""
        return {
            name: _aggregate_value(self.comm, value)
            for name, value in sorted(self._values.items())
        }


def _aggregate_value(comm, value: float) -> dict[str, float]:
    total = comm.allreduce_single(send_buf(float(value)), op_param(SUM))
    return {
        "min": comm.allreduce_single(send_buf(float(value)), op_param(MIN)),
        "max": comm.allreduce_single(send_buf(float(value)), op_param(MAX)),
        "sum": total,
        "mean": total / comm.size,
    }
