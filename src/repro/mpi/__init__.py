"""``repro.mpi`` — a from-scratch, in-process MPI runtime.

This subpackage plays the role of "plain C MPI" in the reproduction: threads
are ranks, mailboxes implement the posted/unexpected matching queues, and
collectives use the textbook algorithms whose cost structure production MPIs
use.  Virtual per-rank clocks driven by an α-β cost model supply the
simulated running times the benchmarks report.
"""

from repro.mpi import algorithms
from repro.mpi.algorithms import Algorithm
from repro.mpi.backends import (
    BACKENDS,
    Backend,
    ProcessBackend,
    ThreadBackend,
    resolve_backend,
)
from repro.mpi.constants import ANY_SOURCE, ANY_TAG, IN_PLACE, PROC_NULL, WORLD_ID
from repro.mpi.context import RawComm
from repro.mpi.costmodel import FREE, Clock, CostModel
from repro.mpi.engine import CollectiveEngine, Decision, TuningRule
from repro.mpi.errors import (
    ProcessKilled,
    RawCommRevoked,
    RawDeadlockError,
    RawMpiError,
    RawProcessFailure,
    RawTruncationError,
    RawUsageError,
    UnsupportedOnBackend,
)
from repro.mpi.faultinject import (
    FaultCampaign,
    KillAtCheckpoint,
    KillMidCollective,
    KillOnOp,
    KillRandom,
    Straggler,
    env_fault_seed_default,
)
from repro.mpi.machine import Machine, RunResult, run_mpi
from repro.mpi.ops import (
    BAND,
    BOR,
    BUILTIN_OPS,
    BXOR,
    LAND,
    LOR,
    LXOR,
    MAX,
    MIN,
    PROD,
    SUM,
    Op,
    user_op,
)
from repro.mpi.p2p import Status
from repro.mpi.profiling import call_delta, expect_calls, snapshot
from repro.mpi.sanitizer import (
    LeakRecord,
    LeakReport,
    ResourceAuditor,
    ResourceLeakError,
    ScheduleFuzzer,
    minimize_failing_seeds,
)
from repro.mpi.requests import RawRequest, testall, waitall, waitany
from repro.mpi.tracing import (
    CallSpec,
    TraceEvent,
    TraceRecorder,
    calls,
    size_bucket,
)

__all__ = [
    "ANY_SOURCE", "ANY_TAG", "IN_PLACE", "PROC_NULL", "WORLD_ID",
    "RawComm", "Machine", "RunResult", "run_mpi",
    "Clock", "CostModel", "FREE",
    "Op", "SUM", "PROD", "MAX", "MIN", "LAND", "LOR", "LXOR",
    "BAND", "BOR", "BXOR", "BUILTIN_OPS", "user_op",
    "Status", "RawRequest", "waitall", "testall", "waitany",
    "RawMpiError", "RawUsageError", "RawTruncationError", "RawDeadlockError",
    "RawProcessFailure", "RawCommRevoked", "ProcessKilled",
    "UnsupportedOnBackend",
    "Backend", "ThreadBackend", "ProcessBackend", "BACKENDS",
    "resolve_backend",
    "FaultCampaign", "KillOnOp", "KillMidCollective", "KillRandom",
    "Straggler", "KillAtCheckpoint", "env_fault_seed_default",
    "expect_calls", "call_delta", "snapshot",
    "TraceRecorder", "TraceEvent", "CallSpec", "calls",
    "size_bucket",
    "algorithms", "Algorithm", "CollectiveEngine", "Decision", "TuningRule",
    "ResourceAuditor", "ResourceLeakError", "LeakReport", "LeakRecord",
    "ScheduleFuzzer", "minimize_failing_seeds",
]

