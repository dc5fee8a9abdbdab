"""Record / optimize / replay orchestration behind ``run_mpi(..., ir=...)``.

``ir="record"`` runs the program once on journaling communicators and
attaches the recorded :class:`~repro.mpi.ir.nodes.Epoch` to the result.
``ir="optimize"`` additionally runs the rewrite pipeline over a copy of the
epoch and replays the optimized graph on a second run, verifying every node
against the recording — the returned values are the *program's* values (from
the recording), and the attached :class:`IRReport` carries the optimized
epoch, per-pass results, and the replay's own :class:`RunResult` (whose op
counts and trace are what the IR benchmarks compare).
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence

from repro.mpi.errors import RawUsageError
from repro.mpi.ir.nodes import Epoch
from repro.mpi.ir.passes import PassManager, PassResult
from repro.mpi.ir.recorder import UnsupportedForIR, record_main
from repro.mpi.ir.replayer import IRReplayError, ReplayPlan, replay_main

MODES = ("record", "optimize")


@dataclass
class IRReport:
    """Everything the IR layer learned about one run."""

    mode: str
    #: the faithful recording
    epoch: Epoch
    #: the rewritten copy (``None`` in record mode)
    optimized: Optional[Epoch] = None
    #: per-pass outcomes, pipeline order
    passes: List[PassResult] = field(default_factory=list)
    #: the optimized replay's run result (``None`` in record mode)
    replay: Optional[Any] = None
    #: per-rank ``{verified, compilations, hits}`` replay statistics
    replay_stats: List[dict] = field(default_factory=list)

    def pass_rewrites(self) -> dict:
        return {p.name: p.rewrites for p in self.passes}

    def summary(self) -> dict:
        out = {"mode": self.mode, "recorded": self.epoch.summary()}
        if self.optimized is not None:
            out["optimized"] = self.optimized.summary()
            out["passes"] = self.pass_rewrites()
            out["verified"] = sum(s["verified"] for s in self.replay_stats)
            out["plan_cache"] = {
                "compilations": sum(s["compilations"]
                                    for s in self.replay_stats),
                "hits": sum(s["hits"] for s in self.replay_stats),
            }
        return out


def _assemble(num_ranks: int, exports: Sequence[dict]) -> Epoch:
    members: dict = {}
    unsupported: set = set()
    ops = []
    for export in exports:
        if export is None:
            raise IRReplayError(
                "recording run lost a rank's journal (rank died?)"
            )
        ops.append(export["nodes"])
        for comm_id, mem in export["members"].items():
            members.setdefault(comm_id, mem)
        unsupported |= export["unsupported"]
    return Epoch(num_ranks=num_ranks, ops=ops, members=members,
                 unsupported=unsupported)


def run_with_ir(fn: Callable[..., Any], num_ranks: int, *, mode: str,
                args: Sequence[Any] = (), **kwargs) -> Any:
    """Record ``fn`` as an epoch and (optionally) optimize + replay it."""
    from repro.mpi.machine import run_mpi

    if mode not in MODES:
        raise RawUsageError(
            f"ir={mode!r} is not a mode; expected one of {MODES} (or 'off')"
        )
    for incompatible in ("faults", "fuzz_seed"):
        if kwargs.get(incompatible) is not None:
            raise RawUsageError(
                f"ir={mode!r} cannot be combined with {incompatible}: the "
                f"journal must be a deterministic transcript"
            )

    record = run_mpi(record_main, num_ranks, args=(fn, tuple(args)),
                     ir="off", **kwargs)
    epoch = _assemble(num_ranks, record.values)
    program_values = [export["value"] for export in record.values]
    report = IRReport(mode=mode, epoch=epoch)
    result = dataclasses.replace(record, values=program_values)
    result.ir = report

    if mode == "record":
        return result

    if epoch.unsupported:
        raise UnsupportedForIR(
            "epoch used ops the IR cannot replay faithfully: "
            + ", ".join(sorted(epoch.unsupported))
            + " (use ir='record' to inspect the journal)"
        )
    optimized = copy.deepcopy(epoch)
    report.optimized = optimized
    report.passes = PassManager().run(optimized)

    plan = ReplayPlan(schedule=optimized.ops, members=dict(optimized.members))
    replay = run_mpi(replay_main, num_ranks, args=(plan,), ir="off", **kwargs)
    report.replay = replay
    report.replay_stats = list(replay.values)
    return result
