"""Communication-plan IR: record epochs, rewrite them, replay them.

The layer above the call-plan cache (DESIGN §13): a run's communication is
captured as a per-rank dataflow graph of :class:`CommOp` nodes
(:mod:`repro.mpi.ir.recorder`), rewritten by a pipeline of optimization
passes (:mod:`repro.mpi.ir.passes`), and re-executed bit-identically through
cached per-signature dispatch plans (:mod:`repro.mpi.ir.replayer`).

Entry point: ``run_mpi(fn, p, ir="record" | "optimize")`` (see
:func:`repro.mpi.ir.driver.run_with_ir`); the report lands on
``RunResult.ir``.
"""

from repro.mpi.ir.nodes import (
    ANY,
    Coll,
    CommOp,
    Epoch,
    Event,
    Loop,
    P2P,
    canonical,
    values_equal,
)
from repro.mpi.ir.recorder import Recorder, RecordingComm, UnsupportedForIR
from repro.mpi.ir.passes import DEFAULT_PASSES, PassManager, PassResult
from repro.mpi.ir.replayer import IRReplayError, ReplayPlan, Replayer
from repro.mpi.ir.driver import IRReport, run_with_ir
from repro.mpi.ir.fragments import fragment, has_fragment

__all__ = [
    "ANY",
    "Coll",
    "CommOp",
    "DEFAULT_PASSES",
    "Epoch",
    "Event",
    "IRReplayError",
    "IRReport",
    "Loop",
    "P2P",
    "PassManager",
    "PassResult",
    "Recorder",
    "RecordingComm",
    "ReplayPlan",
    "Replayer",
    "UnsupportedForIR",
    "canonical",
    "fragment",
    "has_fragment",
    "run_with_ir",
    "values_equal",
]
