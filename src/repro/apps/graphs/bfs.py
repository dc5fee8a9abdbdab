"""Distributed breadth-first search (paper Fig. 9/10).

The graph is distributed by vertex blocks; each BFS level expands the local
frontier, buckets discovered non-local vertices by owner, exchanges them with
a pluggable strategy (:mod:`repro.apps.graphs.exchangers`), and terminates
via an allreduce over frontier emptiness — exactly the structure of the
paper's Fig. 9.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.apps.graphs.exchangers import FrontierExchanger, make_exchanger
from repro.apps.graphs.graph import DistGraph
from repro.core import Communicator, op, send_buf
from repro.mpi.ops import LAND

#: distance marker for unreached vertices (``numeric_limits<size_t>::max()``)
UNDEFINED = np.iinfo(np.int64).max

#: calibrated per-edge CPU cost of frontier expansion
_EDGE_COST = 6.0e-9


def bfs_is_empty_kamping(comm: Communicator, frontier: list) -> bool:
    """Fig. 9's termination check: logical AND over local emptiness."""
    return bool(comm.allreduce_single(send_buf(len(frontier) == 0), op(LAND)))


def _expand_frontier(g: DistGraph, frontier: np.ndarray, dist: np.ndarray,
                     level: int, comm: Communicator) -> dict[int, list]:
    """Visit the frontier, set distances, bucket discovered vertices by owner."""
    next_frontier: dict[int, list] = {}
    edges_scanned = 0
    for v in frontier:
        v = int(v)
        lv = g.to_local(v)
        if dist[lv] != UNDEFINED:
            continue
        dist[lv] = level
        nbrs = g.neighbors(v)
        edges_scanned += len(nbrs)
        for t in nbrs:
            t = int(t)
            if g.is_local(t):
                if dist[g.to_local(t)] == UNDEFINED:
                    next_frontier.setdefault(g.rank, []).append(t)
            else:
                next_frontier.setdefault(g.owner(t), []).append(t)
    if edges_scanned:
        comm.compute(_EDGE_COST * edges_scanned)
    return next_frontier


def bfs(g: DistGraph, source: int, comm: Communicator,
        exchanger: Optional[FrontierExchanger] = None,
        strategy: str = "kamping") -> np.ndarray:
    """Level-synchronous BFS from global vertex ``source``.

    Returns this rank's distance array (hops; ``UNDEFINED`` if unreached).
    ``exchanger`` overrides the frontier-exchange ``strategy``.
    """
    if exchanger is None:
        exchanger = make_exchanger(strategy, comm,
                                   neighbor_ranks=g.neighbor_ranks())
    dist = np.full(g.local_size, UNDEFINED, dtype=np.int64)
    frontier: list[int] = [source] if g.is_local(source) else []
    level = 0
    while not bfs_is_empty_kamping(comm, frontier):
        buckets = _expand_frontier(g, np.asarray(frontier, dtype=np.int64),
                                   dist, level, comm)
        local_next = buckets.pop(g.rank, [])
        arrived = exchanger.exchange(buckets)
        frontier = local_next + [int(v) for v in arrived]
        # The exchange is only about *this* level's discoveries; termination
        # sees the union of locally- and remotely-discovered vertices.
        level += 1
    return dist


def sequential_bfs_reference(n: int, edges_by_source: dict[int, list],
                             source: int) -> np.ndarray:
    """Single-process reference BFS used by the correctness tests."""
    from collections import deque

    dist = np.full(n, UNDEFINED, dtype=np.int64)
    dist[source] = 0
    dq = deque([source])
    while dq:
        u = dq.popleft()
        for t in edges_by_source.get(u, ()):
            if dist[t] == UNDEFINED:
                dist[t] = dist[u] + 1
                dq.append(t)
    return dist
