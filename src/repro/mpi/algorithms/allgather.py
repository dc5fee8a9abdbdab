"""Allgather / allgatherv algorithms.

``nbytes`` hints: allgather uses the local contribution size; allgatherv uses
the *total* gathered size (``Σ recvcounts·itemsize``), which every rank knows
symmetrically because recvcounts is required on all ranks.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from repro.mpi.algorithms import collective_algorithm
from repro.mpi.algorithms.common import (
    CODE_ALLGATHER,
    CODE_ALLGATHERV,
    _ceil_log2,
    _fits,
    _tree_depth,
)
from repro.mpi.algorithms.bcast import bcast_binomial
from repro.mpi.algorithms.gather_scatter import gather_binomial
from repro.mpi.algorithms.schedule import Recv, Send, Tag
from repro.mpi.datatypes import ensure_1d_array
from repro.mpi.errors import RawTruncationError, RawUsageError


def _cost_bruck(p, nbytes, cm):
    # Round k ships min(k, p−k) already-collected blocks: log-depth latency
    # at full (p−1)·n bandwidth.
    return _ceil_log2(p) * (cm.alpha + 2 * cm.overhead) + (p - 1) * nbytes * cm.beta


def _cost_ring(p, nbytes, cm):
    return (p - 1) * (cm.alpha + 2 * cm.overhead + nbytes * cm.beta)


def _cost_gather_bcast(p, nbytes, cm):
    gather = _tree_depth(p) * (cm.alpha + 2 * cm.overhead) + (p - 1) * nbytes * cm.beta
    bcast = _tree_depth(p) * (cm.alpha + p * nbytes * cm.beta + 2 * cm.overhead)
    return gather + bcast


def _cost_ring_v(p, nbytes, cm):
    # nbytes = total gathered size; each round moves ~total/p on average.
    return (p - 1) * (cm.alpha + 2 * cm.overhead) + nbytes * cm.beta * (p - 1) / p


def _cost_gather_bcast_v(p, nbytes, cm):
    # Binomial gather: tree-depth latency; the root's inbound volume
    # (everything but its own block, ≈ n·(p−1)/p) is the bandwidth term.
    gather = _tree_depth(p) * (cm.alpha + 2 * cm.overhead) \
        + nbytes * cm.beta * (p - 1) / p
    bcast = _tree_depth(p) * (cm.alpha + nbytes * cm.beta + 2 * cm.overhead)
    return gather + bcast


@collective_algorithm("allgather", "bruck", default=True, cost=_cost_bruck,
                      description="Bruck's algorithm: ⌈log₂ p⌉ rounds of "
                                  "doubling block exchanges")
def allgather_bruck(p: int, r: int, payload: Any):
    yield Tag(CODE_ALLGATHER)
    blocks: list = [payload]
    k = 1
    while k < p:
        send_cnt = min(k, p - k)
        yield Send((r - k) % p, blocks[:send_cnt])
        blocks.extend((yield Recv((r + k) % p)))
        k <<= 1
    out: list = [None] * p
    for i in range(p):
        out[(r + i) % p] = blocks[i]
    return out


@collective_algorithm("allgather", "ring", cost=_cost_ring,
                      description="p−1 rounds passing one block around the "
                                  "ring; minimal per-round bandwidth")
def allgather_ring(p: int, r: int, payload: Any):
    yield Tag(CODE_ALLGATHER)
    out: list = [None] * p
    out[r] = payload
    cur = payload
    right, left = (r + 1) % p, (r - 1) % p
    for i in range(1, p):
        yield Send(right, cur)
        cur = yield Recv(left)
        out[(r - i) % p] = cur
    return out


@collective_algorithm("allgather", "gather_bcast", cost=_cost_gather_bcast,
                      description="binomial gather to rank 0 followed by a "
                                  "binomial broadcast of the full list")
def allgather_gather_bcast(p: int, r: int, payload: Any):
    items = yield from gather_binomial(p, r, payload, 0)
    return (yield from bcast_binomial(p, r, items, 0))


def _own_block(p: int, r: int, sendbuf: np.ndarray,
               recvcounts: Sequence[int]) -> np.ndarray:
    """The local allgatherv block, checked against ``recvcounts`` *before*
    communicating, so a symmetric count mismatch raises everywhere instead of
    deadlocking the ranks that would have passed."""
    sendbuf = ensure_1d_array(sendbuf)
    if len(recvcounts) != p:
        raise RawUsageError(f"recvcounts must have length {p}")
    if len(sendbuf) > recvcounts[r]:
        raise RawTruncationError(
            f"allgatherv: local block has {len(sendbuf)} items but recvcounts[{r}] "
            f"= {recvcounts[r]}"
        )
    return sendbuf


@collective_algorithm("allgatherv", "ring", default=True, cost=_cost_ring_v,
                      description="p−1 rounds passing variable blocks around "
                                  "the ring; every rank checks every block")
def allgatherv_ring(p: int, r: int, sendbuf: np.ndarray,
                    recvcounts: Sequence[int]):
    yield Tag(CODE_ALLGATHERV)
    sendbuf = _own_block(p, r, sendbuf, recvcounts)
    parts: list[Optional[np.ndarray]] = [None] * p
    parts[r] = sendbuf
    cur = sendbuf
    right, left = (r + 1) % p, (r - 1) % p
    for i in range(1, p):
        yield Send(right, cur)
        src = (r - i) % p
        cur = parts[src] = _fits((yield Recv(left)), src, recvcounts[src],
                                 "allgatherv: block")
    return np.concatenate(parts) if p > 1 else sendbuf.copy()


@collective_algorithm("allgatherv", "gather_bcast", cost=_cost_gather_bcast_v,
                      description="binomial gather of blocks to rank 0, "
                                  "concatenate, binomial broadcast")
def allgatherv_gather_bcast(p: int, r: int, sendbuf: np.ndarray,
                            recvcounts: Sequence[int]):
    sendbuf = _own_block(p, r, sendbuf, recvcounts)
    blocks = yield from gather_binomial(p, r, sendbuf, 0)
    full: Optional[np.ndarray] = None
    if r == 0:
        parts = [_fits(block, src, recvcounts[src], "allgatherv: block")
                 for src, block in enumerate(blocks)]
        full = np.concatenate(parts) if p > 1 else sendbuf.copy()
    return (yield from bcast_binomial(p, r, full, 0))
