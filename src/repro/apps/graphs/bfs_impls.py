"""BFS frontier-exchange + termination logic in five binding styles (Table I).

The paper's BFS row counts only the code that *differs* between bindings:
the frontier exchange and the completion check (§IV-B, Footnote 8).  These
are those functions, implemented comparably; :func:`bfs_with_binding` is the
level-synchronous loop they plug into, shared by every binding and not
counted.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.apps.graphs.bfs import UNDEFINED, bfs_is_empty_kamping
from repro.apps.graphs.graph import DistGraph
from repro.bindings import boost_mpi, mpl, rwth_mpi
from repro.core import Communicator, with_flattened
from repro.mpi.context import RawComm
from repro.mpi.ops import LAND

_EMPTY = np.empty(0, dtype=np.int64)


# -- plain MPI ----------------------------------------------------------------

def bfs_exchange_mpi(comm: RawComm, nested: Mapping[int, list]) -> np.ndarray:
    """Plain MPI: flatten by hand, exchange counts, alltoallv with counts."""
    p = comm.size
    counts = [0] * p
    parts = []
    for dest in range(p):
        items = nested.get(dest, ())
        counts[dest] = len(items)
        if len(items):
            parts.append(np.asarray(items, dtype=np.int64))
    if parts:
        sendbuf = np.concatenate(parts)
    else:
        sendbuf = _EMPTY
    rcounts = comm.alltoall(counts)
    rdispls = [0] * p
    for i in range(1, p):
        rdispls[i] = rdispls[i - 1] + rcounts[i - 1]
    recvbuf = np.empty(rdispls[-1] + rcounts[-1], dtype=np.int64)
    recvbuf[:] = comm.alltoallv(sendbuf, counts, rcounts)
    return recvbuf


def bfs_is_empty_mpi(comm: RawComm, frontier: list) -> bool:
    local_empty = len(frontier) == 0
    return bool(comm.allreduce(local_empty, LAND))


# -- Boost.MPI -------------------------------------------------------------------

def bfs_exchange_boost(comm: boost_mpi.communicator,
                       nested: Mapping[int, list]) -> np.ndarray:
    """Boost.MPI: no alltoallv — all_to_all of (implicitly serialized) vectors."""
    p = comm.size()
    vectors = []
    for dest in range(p):
        vectors.append(np.asarray(nested.get(dest, ()), dtype=np.int64))
    received = boost_mpi.all_to_all(comm, vectors)
    nonempty = [np.asarray(v, dtype=np.int64) for v in received if len(v)]
    if not nonempty:
        return _EMPTY
    return np.concatenate(nonempty)


def bfs_is_empty_boost(comm: boost_mpi.communicator, frontier: list) -> bool:
    import operator

    flags = boost_mpi.all_reduce(comm, len(frontier) == 0, operator.and_)
    return bool(flags)


# -- RWTH-MPI -----------------------------------------------------------------------

def bfs_exchange_rwth(comm: rwth_mpi.Communicator,
                      nested: Mapping[int, list]) -> np.ndarray:
    """RWTH-MPI: overload exchanges receive counts internally."""
    p = comm.size
    counts = [0] * p
    parts = []
    for dest in range(p):
        items = nested.get(dest, ())
        counts[dest] = len(items)
        if len(items):
            parts.append(np.asarray(items, dtype=np.int64))
    if parts:
        sendbuf = np.concatenate(parts)
    else:
        sendbuf = _EMPTY
    return comm.all_to_all_varying(sendbuf, counts)


def bfs_is_empty_rwth(comm: rwth_mpi.Communicator, frontier: list) -> bool:
    return bool(comm.all_reduce(len(frontier) == 0, LAND))


# -- MPL ----------------------------------------------------------------------------

def bfs_exchange_mpl(comm: mpl.communicator,
                     nested: Mapping[int, list]) -> np.ndarray:
    """MPL: counts by hand plus layouts for both directions (alltoallw path)."""
    p = comm.size()
    counts = [0] * p
    parts = []
    for dest in range(p):
        items = nested.get(dest, ())
        counts[dest] = len(items)
        if len(items):
            parts.append(np.asarray(items, dtype=np.int64))
    if parts:
        sendbuf = np.concatenate(parts)
    else:
        sendbuf = _EMPTY
    rcounts = comm.alltoall(counts)
    send_layouts = []
    for c in counts:
        send_layouts.append(mpl.contiguous_layout(c))
    recv_layouts = []
    for c in rcounts:
        recv_layouts.append(mpl.contiguous_layout(c))
    return comm.alltoallv(sendbuf, mpl.layouts(send_layouts),
                          mpl.layouts(recv_layouts))


def bfs_is_empty_mpl(comm: mpl.communicator, frontier: list) -> bool:
    return bool(comm.allreduce(LAND, len(frontier) == 0))


# -- KaMPIng (paper Fig. 9) -----------------------------------------------------------

def bfs_exchange_kamping(comm: Communicator,
                         nested: Mapping[int, list]) -> np.ndarray:
    """KaMPIng: ``with_flattened`` + count-inferring alltoallv (Fig. 9)."""
    return with_flattened(nested, comm.size).call(
        lambda *flattened: comm.alltoallv(*flattened)
    )


#: binding name → (exchange fn, is_empty fn, communicator wrapper);
#: KaMPIng's is_empty is the one :func:`repro.apps.graphs.bfs.bfs` runs
BFS_IMPLS = {
    "MPI": (bfs_exchange_mpi, bfs_is_empty_mpi, lambda raw: raw),
    "Boost.MPI": (bfs_exchange_boost, bfs_is_empty_boost, boost_mpi.communicator),
    "RWTH-MPI": (bfs_exchange_rwth, bfs_is_empty_rwth, rwth_mpi.Communicator),
    "MPL": (bfs_exchange_mpl, bfs_is_empty_mpl, mpl.communicator),
    "KaMPIng": (bfs_exchange_kamping, bfs_is_empty_kamping, Communicator),
}


def bfs_with_binding(raw: RawComm, g: DistGraph, source: int,
                     binding: str) -> np.ndarray:
    """Level-synchronous BFS from ``source`` whose frontier exchange and
    termination check are ``binding``'s; this rank's distance array."""
    exchange, is_empty, wrap = BFS_IMPLS[binding]
    comm = wrap(raw)
    dist = np.full(g.local_size, UNDEFINED, dtype=np.int64)
    frontier = [source] if g.is_local(source) else []
    level = 0
    while not is_empty(comm, frontier):
        buckets = {}
        for v in frontier:
            lv = g.to_local(int(v))
            if dist[lv] != UNDEFINED:
                continue
            dist[lv] = level
            for t in g.neighbors(int(v)):
                t = int(t)
                buckets.setdefault(g.owner(t), []).append(t)
        local_next = [v for v in buckets.pop(g.rank, [])
                      if dist[g.to_local(v)] == UNDEFINED]
        arrived = exchange(comm, buckets)
        frontier = local_next + [int(v) for v in np.asarray(arrived)]
        level += 1
    return dist
