"""p = 1 fast paths: pure-local implementations for singleton communicators.

On a one-rank communicator every collective is a local data movement; the
seed's algorithms already sent no messages at p = 1, but still drew collective
tags and walked their scheduling loops.  These implementations skip all of
that while preserving the seed's argument validation and return conventions
(fresh arrays where the general path concatenates, identity semantics for
exscan, the datatype charge for alltoallw).

They are applied unconditionally by the engine at ``comm.size == 1`` — even
under forced algorithm selection — and are exempt from cost-model selection
(every collective is communication-free at p = 1).

Neighbor collectives are deliberately absent: a self-loop topology carries
real messages even on one rank.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from repro.mpi.algorithms import Algorithm
from repro.mpi.algorithms.common import _validate_root
from repro.mpi.datatypes import ensure_1d_array
from repro.mpi.errors import RawTruncationError, RawUsageError
from repro.mpi.ops import Op


def _barrier(comm) -> None:
    return None


def _bcast(comm, payload: Any, root: int) -> Any:
    _validate_root(comm, root)
    return payload


def _gather(comm, payload: Any, root: int) -> Optional[list]:
    _validate_root(comm, root)
    return [payload]


def _gatherv(comm, sendbuf: np.ndarray, recvcounts: Optional[Sequence[int]],
             root: int) -> Optional[np.ndarray]:
    _validate_root(comm, root)
    sendbuf = ensure_1d_array(sendbuf)
    if recvcounts is None:
        raise RawUsageError("gatherv requires recvcounts at the root")
    if len(recvcounts) != 1:
        raise RawUsageError("recvcounts must have length 1")
    if len(sendbuf) > recvcounts[0]:
        raise RawTruncationError(
            f"gatherv: message from rank 0 has {len(sendbuf)} items, "
            f"recvcounts allows {recvcounts[0]}"
        )
    return sendbuf.copy()


def _scatter(comm, payloads: Optional[Sequence[Any]], root: int) -> Any:
    _validate_root(comm, root)
    if payloads is None or len(payloads) != 1:
        raise RawUsageError("scatter root must supply exactly 1 payloads")
    return payloads[0]


def _scatterv(comm, sendbuf: Optional[np.ndarray],
              sendcounts: Optional[Sequence[int]], root: int) -> np.ndarray:
    _validate_root(comm, root)
    if sendbuf is None or sendcounts is None or len(sendcounts) != 1:
        raise RawUsageError("scatterv root must supply sendbuf and 1 sendcounts")
    sendbuf = ensure_1d_array(sendbuf)
    if sendcounts[0] > len(sendbuf):
        raise RawUsageError("scatterv sendcounts exceed sendbuf length")
    return sendbuf[: sendcounts[0]].copy()


def _allgather(comm, payload: Any) -> list:
    return [payload]


def _allgatherv(comm, sendbuf: np.ndarray,
                recvcounts: Sequence[int]) -> np.ndarray:
    sendbuf = ensure_1d_array(sendbuf)
    if len(recvcounts) != 1:
        raise RawUsageError("recvcounts must have length 1")
    if len(sendbuf) > recvcounts[0]:
        raise RawTruncationError(
            f"allgatherv: local block has {len(sendbuf)} items but recvcounts[0] "
            f"= {recvcounts[0]}"
        )
    return sendbuf.copy()


def _alltoall(comm, payloads: Sequence[Any]) -> list:
    if len(payloads) != 1:
        raise RawUsageError("alltoall requires exactly 1 payloads")
    return [payloads[0]]


def _alltoallv(comm, sendbuf: np.ndarray, sendcounts: Sequence[int],
               recvcounts: Sequence[int]) -> np.ndarray:
    sendbuf = ensure_1d_array(sendbuf)
    if len(sendcounts) != 1 or len(recvcounts) != 1:
        raise RawUsageError("sendcounts/recvcounts must have length 1")
    if sendcounts[0] > len(sendbuf):
        raise RawUsageError("alltoallv sendcounts exceed sendbuf length")
    return np.asarray(sendbuf[: sendcounts[0]]).copy()


def _alltoallw(comm, send_blocks: Sequence[Any]) -> list:
    if len(send_blocks) != 1:
        raise RawUsageError("alltoallw requires exactly 1 blocks")
    # The self-block still pays the datatype setup cost (seed behavior).
    comm.clock.compute(comm.machine.cost_model.dtype_alpha)
    return [send_blocks[0]]


def _reduce(comm, value: Any, op: Op, root: int) -> Any:
    _validate_root(comm, root)
    return value


def _allreduce(comm, value: Any, op: Op) -> Any:
    return value


def _scan(comm, value: Any, op: Op) -> Any:
    return value


def _exscan(comm, value: Any, op: Op) -> Any:
    if op.identity is None:
        return None
    if isinstance(value, np.ndarray):
        return np.full_like(value, op.identity)
    return type(value)(op.identity) if not isinstance(value, bool) else op.identity


def _make(collective: str, fn) -> Algorithm:
    return Algorithm(collective=collective, name="singleton", fn=fn,
                     description="pure-local p=1 fast path")


SINGLETON: dict[str, Algorithm] = {
    "barrier": _make("barrier", _barrier),
    "bcast": _make("bcast", _bcast),
    "gather": _make("gather", _gather),
    "gatherv": _make("gatherv", _gatherv),
    "scatter": _make("scatter", _scatter),
    "scatterv": _make("scatterv", _scatterv),
    "allgather": _make("allgather", _allgather),
    "allgatherv": _make("allgatherv", _allgatherv),
    "alltoall": _make("alltoall", _alltoall),
    "alltoallv": _make("alltoallv", _alltoallv),
    "alltoallw": _make("alltoallw", _alltoallw),
    "reduce": _make("reduce", _reduce),
    "allreduce": _make("allreduce", _allreduce),
    "scan": _make("scan", _scan),
    "exscan": _make("exscan", _exscan),
}
