"""Broadcast algorithms.

``binomial`` is the seed default; ``linear`` wins at small p in the α-β model
because the root's p−1 buffered sends each cost only ``overhead`` on the
sender clock, while the binomial tree serializes ⌈log₂ p⌉ full α+nβ hops;
``scatter_allgather`` (van de Geijn) is the textbook large-message algorithm —
it moves 2·n·(p−1)/p bytes per rank instead of n per tree level.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.mpi.algorithms import collective_algorithm
from repro.mpi.algorithms.common import CODE_BCAST, _binomial, _check_root, _tree_depth
from repro.mpi.algorithms.schedule import Recv, Send, Tag


def _cost_binomial(p, nbytes, cm):
    return _tree_depth(p) * (cm.alpha + nbytes * cm.beta + 2 * cm.overhead)


def _cost_linear(p, nbytes, cm):
    if p == 1:
        return 0.0
    # Root pays p−1 overheads; the last leaf then waits one full transfer.
    return (p - 1) * cm.overhead + cm.alpha + nbytes * cm.beta + cm.overhead


def _cost_scatter_allgather(p, nbytes, cm):
    if p == 1:
        return 0.0
    shard = nbytes / p
    scatter = (p - 1) * cm.overhead + cm.alpha + shard * cm.beta + cm.overhead
    ring = (p - 1) * (cm.alpha + 2 * cm.overhead + shard * cm.beta)
    return scatter + ring


@collective_algorithm("bcast", "binomial", default=True, cost=_cost_binomial,
                      description="binomial tree rooted at `root`: "
                                  "⌊log₂ p⌋·(α+nβ) on the critical path")
def bcast_binomial(p: int, r: int, payload: Any, root: int):
    _check_root(p, root)
    yield Tag(CODE_BCAST)
    parent, children = _binomial(p, (r - root) % p)
    if parent is not None:
        payload = yield Recv((parent + root) % p)
    for child in children:
        yield Send((child + root) % p, payload)
    return payload


@collective_algorithm("bcast", "linear", cost=_cost_linear,
                      description="root sends the full payload directly to "
                                  "every other rank")
def bcast_linear(p: int, r: int, payload: Any, root: int):
    _check_root(p, root)
    yield Tag(CODE_BCAST)
    if r == root:
        for dst in range(p):
            if dst != root:
                yield Send(dst, payload)
        return payload
    return (yield Recv(root))


@collective_algorithm("bcast", "scatter_allgather",
                      cost=_cost_scatter_allgather,
                      description="van de Geijn: linear scatter of p shards, "
                                  "then ring allgather — 2n(p−1)/p bytes per "
                                  "rank instead of n per tree level")
def bcast_scatter_allgather(p: int, r: int, payload: Any, root: int):
    _check_root(p, root)
    yield Tag(CODE_BCAST)
    vr = (r - root) % p
    # Shard: 1-D arrays split into p nearly-equal chunks; anything else ships
    # whole inside virtual rank 0's shard (the ring still pipelines it).
    if r == root:
        if isinstance(payload, np.ndarray) and payload.ndim == 1 and len(payload) >= p:
            shards = [("array", chunk) for chunk in np.array_split(payload, p)]
        else:
            shards = [("whole", payload)] + [("pad", None)] * (p - 1)
        for v in range(1, p):
            yield Send((v + root) % p, shards[v])
        mine = shards[0]
    else:
        mine = yield Recv(root)
    # Ring allgather of the shards, indexed by virtual rank.
    yield Tag(CODE_BCAST)
    parts: list = [None] * p
    parts[vr] = mine
    cur = mine
    right, left = (r + 1) % p, (r - 1) % p
    for i in range(1, p):
        yield Send(right, cur)
        cur = yield Recv(left)
        parts[(vr - i) % p] = cur
    if r == root:
        return payload  # its own object, like binomial and linear: no copy
    if parts[0][0] == "whole":
        return parts[0][1]
    return np.concatenate([chunk for _, chunk in parts])
