"""Gather / scatter family algorithms."""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from repro.mpi.algorithms import collective_algorithm
from repro.mpi.algorithms.common import (
    CODE_GATHER,
    CODE_GATHERV,
    CODE_SCATTER,
    CODE_SCATTERV,
    _binomial,
    _check_root,
    _fits,
    _tree_depth,
)
from repro.mpi.algorithms.schedule import Recv, Send, Tag
from repro.mpi.datatypes import ensure_1d_array
from repro.mpi.errors import RawUsageError


def _cost_gather_binomial(p, nbytes, cm):
    # tree-depth latency; the root still absorbs (p−1)·n bytes in total.
    return _tree_depth(p) * (cm.alpha + 2 * cm.overhead) + (p - 1) * nbytes * cm.beta


def _cost_gather_linear(p, nbytes, cm):
    if p == 1:
        return 0.0
    # Root posts p−1 receives at `overhead` each; the slowest arrival
    # carries one α plus its block.
    return cm.alpha + nbytes * cm.beta + p * cm.overhead


def _cost_scatter_linear(p, nbytes, cm):
    if p == 1:
        return 0.0
    return (p - 1) * cm.overhead + cm.alpha + nbytes * cm.beta + cm.overhead


def _cost_scatter_binomial(p, nbytes, cm):
    if p == 1:
        return 0.0
    # Each tree level forwards half the remaining blocks: tree-depth latency,
    # but the root's first send already carries ~p/2 blocks.
    return _tree_depth(p) * (cm.alpha + 2 * cm.overhead) + p * nbytes * cm.beta


@collective_algorithm("gather", "binomial", default=True,
                      cost=_cost_gather_binomial,
                      description="binomial combining tree of (virtual rank, "
                                  "payload) item lists")
def gather_binomial(p: int, r: int, payload: Any, root: int):
    _check_root(p, root)
    yield Tag(CODE_GATHER)
    vr = (r - root) % p
    parent, children = _binomial(p, vr)
    items: list[tuple[int, Any]] = [(vr, payload)]
    for child in reversed(children):
        items.extend((yield Recv((child + root) % p)))
    if parent is not None:
        yield Send((parent + root) % p, items)
        return None
    out: list = [None] * p
    for v, pl in items:
        out[(v + root) % p] = pl
    return out


@collective_algorithm("gather", "linear", cost=_cost_gather_linear,
                      description="every rank sends its payload directly to "
                                  "the root")
def gather_linear(p: int, r: int, payload: Any, root: int):
    _check_root(p, root)
    yield Tag(CODE_GATHER)
    if r != root:
        yield Send(root, payload)
        return None
    out: list = [None] * p
    out[r] = payload
    for src in range(p):
        if src != r:
            out[src] = yield Recv(src)
    return out


@collective_algorithm("gatherv", "linear", default=True,
                      cost=_cost_gather_linear,
                      description="every rank sends its block directly to the "
                                  "root, which checks recvcounts")
def gatherv_linear(p: int, r: int, sendbuf: np.ndarray,
                   recvcounts: Optional[Sequence[int]], root: int):
    _check_root(p, root)
    yield Tag(CODE_GATHERV)
    sendbuf = ensure_1d_array(sendbuf)
    if r != root:
        yield Send(root, sendbuf)
        return None
    if recvcounts is None:
        raise RawUsageError("gatherv requires recvcounts at the root")
    if len(recvcounts) != p:
        raise RawUsageError(f"recvcounts must have length {p}")
    parts: list[Optional[np.ndarray]] = [None] * p
    parts[r] = sendbuf
    for src in range(p):
        if src != r:
            parts[src] = yield Recv(src)
    parts = [_fits(block, src, recvcounts[src], "gatherv: message")
             for src, block in enumerate(parts)]
    return np.concatenate(parts) if parts else np.empty(0)


@collective_algorithm("scatter", "linear", default=True,
                      cost=_cost_scatter_linear,
                      description="root sends each rank its payload directly")
def scatter_linear(p: int, r: int, payloads: Optional[Sequence[Any]],
                   root: int):
    _check_root(p, root)
    yield Tag(CODE_SCATTER)
    if r == root:
        if payloads is None or len(payloads) != p:
            raise RawUsageError(f"scatter root must supply exactly {p} payloads")
        for dst in range(p):
            if dst != root:
                yield Send(dst, payloads[dst])
        return payloads[root]
    return (yield Recv(root))


@collective_algorithm("scatter", "binomial", cost=_cost_scatter_binomial,
                      description="binomial tree forwarding subtree slices: "
                                  "log-depth latency, Θ(p·n) root bandwidth")
def scatter_binomial(p: int, r: int, payloads: Optional[Sequence[Any]],
                     root: int):
    _check_root(p, root)
    yield Tag(CODE_SCATTER)
    vr = (r - root) % p
    parent, children = _binomial(p, vr)
    # `items[i]` is the payload of virtual rank vr+i; each child receives the
    # contiguous slice covering its own subtree.
    if parent is None:
        if payloads is None or len(payloads) != p:
            raise RawUsageError(f"scatter root must supply exactly {p} payloads")
        items = [payloads[(v + root) % p] for v in range(p)]
    else:
        items = yield Recv((parent + root) % p)
    for child in children:
        first = child - vr
        yield Send((child + root) % p, items[first: first + min(first, p - child)])
    return items[0]


@collective_algorithm("scatterv", "linear", default=True,
                      cost=_cost_scatter_linear,
                      description="root slices sendbuf by sendcounts and "
                                  "sends each slice directly")
def scatterv_linear(p: int, r: int, sendbuf: Optional[np.ndarray],
                    sendcounts: Optional[Sequence[int]], root: int):
    _check_root(p, root)
    yield Tag(CODE_SCATTERV)
    if r == root:
        if sendbuf is None or sendcounts is None or len(sendcounts) != p:
            raise RawUsageError(f"scatterv root must supply sendbuf and {p} sendcounts")
        sendbuf = ensure_1d_array(sendbuf)
        displs = np.concatenate(([0], np.cumsum(sendcounts)[:-1])).astype(int)
        if displs[-1] + sendcounts[-1] > len(sendbuf):
            raise RawUsageError("scatterv sendcounts exceed sendbuf length")
        for dst in range(p):
            if dst != root:
                yield Send(dst, sendbuf[displs[dst]: displs[dst] + sendcounts[dst]])
        return sendbuf[displs[root]: displs[root] + sendcounts[root]].copy()
    return ensure_1d_array((yield Recv(root)))
