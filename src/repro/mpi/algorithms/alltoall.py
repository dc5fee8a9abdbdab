"""All-to-all family algorithms.

``pairwise`` (the seed default) runs p−1 synchronized rounds — rank r talks
to (r±i) in round i — so each round costs a full α round-trip.  ``spread``
posts *all* buffered sends up front and only then receives; on the contention-
free α-β model this removes p−2 of the p−1 latency terms.  The two schedules
exchange exactly the same (source, dest, payload) message set and receive by
explicit source, so mixed selections across ranks still match correctly.

``nbytes`` hint: total local send volume.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from repro.mpi.algorithms import collective_algorithm
from repro.mpi.algorithms.common import (
    CODE_ALLTOALL,
    CODE_ALLTOALLV,
    CODE_ALLTOALLW,
    _fits,
)
from repro.mpi.algorithms.schedule import DatatypeSetup, Recv, Send, Tag
from repro.mpi.datatypes import ensure_1d_array
from repro.mpi.errors import RawUsageError


def _cost_pairwise(p, nbytes, cm):
    if p == 1:
        return 0.0
    per_peer = nbytes / p
    return (p - 1) * (cm.alpha + 2 * cm.overhead + per_peer * cm.beta)


def _cost_spread(p, nbytes, cm):
    if p == 1:
        return 0.0
    per_peer = nbytes / p
    # p−1 buffered send overheads up front; the last matching sender posted
    # its message ≈(p−1)·o into the round, so the final receive completes at
    # ≈p·o + α + nβ.  When transfers are instant the 2(p−1) per-call
    # overheads themselves are the critical path.
    return max(2 * (p - 1) * cm.overhead,
               p * cm.overhead + cm.alpha + per_peer * cm.beta)


def _cost_pairwise_w(p, nbytes, cm):
    if p == 1:
        return 0.0
    per_peer = nbytes / p
    return cm.dtype_alpha + (p - 1) * (
        cm.alpha + cm.dtype_alpha + 2 * cm.overhead + per_peer * cm.pack_beta
    )


@collective_algorithm("alltoall", "pairwise", default=True,
                      cost=_cost_pairwise,
                      description="p−1 rounds exchanging with ranks (r±i)")
def alltoall_pairwise(p: int, r: int, payloads: Sequence[Any]):
    yield Tag(CODE_ALLTOALL)
    if len(payloads) != p:
        raise RawUsageError(f"alltoall requires exactly {p} payloads")
    out: list = [None] * p
    out[r] = payloads[r]
    for i in range(1, p):
        dst, src = (r + i) % p, (r - i) % p
        yield Send(dst, payloads[dst])
        out[src] = yield Recv(src)
    return out


@collective_algorithm("alltoall", "spread", cost=_cost_spread,
                      description="post all p−1 buffered sends, then receive "
                                  "by explicit source — one α on the critical "
                                  "path instead of p−1")
def alltoall_spread(p: int, r: int, payloads: Sequence[Any]):
    yield Tag(CODE_ALLTOALL)
    if len(payloads) != p:
        raise RawUsageError(f"alltoall requires exactly {p} payloads")
    out: list = [None] * p
    out[r] = payloads[r]
    for i in range(1, p):
        dst = (r + i) % p
        yield Send(dst, payloads[dst])
    for i in range(1, p):
        src = (r - i) % p
        out[src] = yield Recv(src)
    return out


def _send_slices(p: int, sendbuf: np.ndarray, sendcounts: Sequence[int],
                 recvcounts: Sequence[int]) -> list:
    """The validated alltoallv send buffer, sliced per destination."""
    sendbuf = ensure_1d_array(sendbuf)
    if len(sendcounts) != p or len(recvcounts) != p:
        raise RawUsageError(f"sendcounts/recvcounts must have length {p}")
    sdispls = np.concatenate(([0], np.cumsum(sendcounts)[:-1])).astype(int)
    if sdispls[-1] + sendcounts[-1] > len(sendbuf):
        raise RawUsageError("alltoallv sendcounts exceed sendbuf length")
    return [sendbuf[sdispls[dst]: sdispls[dst] + sendcounts[dst]]
            for dst in range(p)]


@collective_algorithm("alltoallv", "pairwise", default=True,
                      cost=_cost_pairwise,
                      description="p−1 rounds exchanging array slices with "
                                  "ranks (r±i); zero blocks still cost α")
def alltoallv_pairwise(p: int, r: int, sendbuf: np.ndarray,
                       sendcounts: Sequence[int], recvcounts: Sequence[int]):
    yield Tag(CODE_ALLTOALLV)
    slices = _send_slices(p, sendbuf, sendcounts, recvcounts)
    parts: list[Optional[np.ndarray]] = [None] * p
    parts[r] = slices[r]
    for i in range(1, p):
        dst, src = (r + i) % p, (r - i) % p
        yield Send(dst, slices[dst])
        parts[src] = _fits((yield Recv(src)), src, recvcounts[src],
                           "alltoallv: message")
    return np.concatenate(parts) if p > 1 else np.asarray(parts[r]).copy()


@collective_algorithm("alltoallv", "spread", cost=_cost_spread,
                      description="post every slice up front, then receive by "
                                  "explicit source")
def alltoallv_spread(p: int, r: int, sendbuf: np.ndarray,
                     sendcounts: Sequence[int], recvcounts: Sequence[int]):
    yield Tag(CODE_ALLTOALLV)
    slices = _send_slices(p, sendbuf, sendcounts, recvcounts)
    parts: list[Optional[np.ndarray]] = [None] * p
    parts[r] = slices[r]
    for i in range(1, p):
        dst = (r + i) % p
        yield Send(dst, slices[dst])
    for i in range(1, p):
        src = (r - i) % p
        parts[src] = _fits((yield Recv(src)), src, recvcounts[src],
                           "alltoallv: message")
    return np.concatenate(parts) if p > 1 else np.asarray(parts[r]).copy()


@collective_algorithm("alltoallw", "pairwise", default=True,
                      cost=_cost_pairwise_w,
                      description="pairwise exchange paying the per-peer "
                                  "derived-datatype penalty")
def alltoallw_pairwise(p: int, r: int, send_blocks: Sequence[Any]):
    yield Tag(CODE_ALLTOALLW)
    if len(send_blocks) != p:
        raise RawUsageError(f"alltoallw requires exactly {p} blocks")
    out: list = [None] * p
    out[r] = send_blocks[r]
    # Even the self-block pays the datatype setup cost.
    yield DatatypeSetup()
    for i in range(1, p):
        dst, src = (r + i) % p, (r - i) % p
        yield Send(dst, send_blocks[dst], packed=True)
        out[src] = yield Recv(src)
    return out
