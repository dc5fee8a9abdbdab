"""Failure injection utilities (substrate for the ULFM plugin).

A :class:`FailureScript` lets tests and benchmarks declare *where* ranks die:
ranks call :meth:`FailureScript.checkpoint` at interesting program points, and
the script kills the configured ranks at the configured checkpoints.  Death is
modelled by raising :class:`~repro.mpi.errors.ProcessKilled`, which unwinds
the rank thread; peers subsequently observe
:class:`~repro.mpi.errors.RawProcessFailure` from any operation that needs
the dead rank.

Scripted checkpoints are the simplest injection mode; for counted-operation,
mid-collective, probabilistic, and slow-rank injection see
:class:`~repro.mpi.faultinject.FaultCampaign`, whose
:meth:`~repro.mpi.faultinject.FaultCampaign.checkpoint` method is a drop-in
superset of this class.
"""

from __future__ import annotations

from typing import Hashable

from repro.mpi.context import RawComm
from repro.mpi.errors import ProcessKilled


class FailureScript:
    """Declarative failure plan: ``{checkpoint_name: {ranks to kill}}``."""

    def __init__(self, plan: dict[Hashable, set[int]]):
        self.plan = {k: set(v) for k, v in plan.items()}

    def checkpoint(self, comm: RawComm, name: Hashable) -> None:
        """Kill the calling rank if the plan says so at this checkpoint."""
        victims = self.plan.get(name)
        if victims and comm.world_rank in victims:
            comm.machine.require("failures", "failure injection")
            comm.machine.mark_failed(comm.world_rank)
            raise ProcessKilled(comm.world_rank)


def no_failures() -> FailureScript:
    """A script that never kills anyone."""
    return FailureScript({})
