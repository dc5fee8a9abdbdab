"""Neighborhood collective algorithms.

Only one schedule exists (``direct``): message complexity is Θ(degree) by
construction, which is the entire point of neighborhood collectives — there
is no size/p crossover for the engine to exploit, so no cost formula is
registered and the default policy always picks ``direct``.  No singleton
fast path either: a self-loop topology carries real messages even on one
rank.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.mpi.algorithms import collective_algorithm
from repro.mpi.algorithms.common import CODE_NEIGHBOR, CODE_NEIGHBORV, _fits
from repro.mpi.algorithms.schedule import Recv, Send, Tag, Topology
from repro.mpi.datatypes import ensure_1d_array
from repro.mpi.errors import RawUsageError


def _require_topology(topo: Optional[tuple]
                      ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    if topo is None:
        raise RawUsageError(
            "neighborhood collectives require a dist-graph communicator "
            "(use dist_graph_create_adjacent)"
        )
    return topo


@collective_algorithm("neighbor_alltoall", "direct", default=True,
                      description="one buffered send per out-neighbor, one "
                                  "receive per in-neighbor")
def neighbor_alltoall_direct(p: int, r: int, payloads: Sequence):
    sources, destinations = _require_topology((yield Topology()))
    yield Tag(CODE_NEIGHBOR)
    if len(payloads) != len(destinations):
        raise RawUsageError(
            f"neighbor_alltoall requires {len(destinations)} payloads "
            f"(one per destination)"
        )
    for payload, dst in zip(payloads, destinations):
        yield Send(dst, payload)
    out = []
    for src in sources:
        out.append((yield Recv(src)))
    return out


@collective_algorithm("neighbor_alltoallv", "direct", default=True,
                      description="variable-size neighborhood exchange: "
                                  "Θ(degree), not Θ(p)")
def neighbor_alltoallv_direct(p: int, r: int, sendbuf: np.ndarray,
                              sendcounts: Sequence[int],
                              recvcounts: Sequence[int]):
    sources, destinations = _require_topology((yield Topology()))
    yield Tag(CODE_NEIGHBORV)
    sendbuf = ensure_1d_array(sendbuf)
    if len(sendcounts) != len(destinations):
        raise RawUsageError("sendcounts must match the number of destinations")
    if len(recvcounts) != len(sources):
        raise RawUsageError("recvcounts must match the number of sources")
    displs = np.concatenate(([0], np.cumsum(sendcounts)[:-1])).astype(int) \
        if len(sendcounts) else np.zeros(0, dtype=int)
    for j, dst in enumerate(destinations):
        yield Send(dst, sendbuf[displs[j]: displs[j] + sendcounts[j]])
    parts = []
    for i, src in enumerate(sources):
        parts.append(_fits((yield Recv(src)), src, recvcounts[i],
                           "neighbor_alltoallv: message"))
    if not parts:
        return sendbuf[:0].copy()
    return np.concatenate(parts)
