"""Distributed graph representation.

The graph is distributed by contiguous vertex blocks: rank ``r`` of ``p``
owns global vertices ``[r·n/p, (r+1)·n/p)`` (the paper's §IV-B setting) and
stores their incident edges as a local adjacency array (CSR) over *global*
vertex ids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def block_bounds(n_global: int, p: int, rank: int) -> tuple[int, int]:
    """Vertex range ``[first, last)`` owned by ``rank`` (balanced blocks)."""
    base, extra = divmod(n_global, p)
    first = rank * base + min(rank, extra)
    last = first + base + (1 if rank < extra else 0)
    return first, last


def block_owner(v: int, n_global: int, p: int) -> int:
    """Owner rank of global vertex ``v`` under the block distribution."""
    base, extra = divmod(n_global, p)
    threshold = (base + 1) * extra
    if v < threshold:
        return v // (base + 1)
    return extra + (v - threshold) // base if base else extra


def block_owners(vs: np.ndarray, n_global: int, p: int) -> np.ndarray:
    """:func:`block_owner` of every vertex in ``vs``, as an int64 array."""
    vs = np.asarray(vs, dtype=np.int64)
    base, extra = divmod(n_global, p)
    threshold = (base + 1) * extra
    tail = extra + (vs - threshold) // base if base else extra
    return np.where(vs < threshold, vs // (base + 1), tail)


@dataclass
class DistGraph:
    """One rank's share of a distributed graph (CSR over global ids)."""

    n_global: int
    p: int
    rank: int
    #: CSR index: local vertex i owns adjncy[xadj[i]:xadj[i+1]]
    xadj: np.ndarray
    #: neighbor lists (global vertex ids)
    adjncy: np.ndarray

    def __post_init__(self) -> None:
        self.first, self.last = block_bounds(self.n_global, self.p, self.rank)
        if len(self.xadj) != self.local_size + 1:
            raise ValueError(
                f"xadj has {len(self.xadj)} entries; expected local_size+1 = "
                f"{self.local_size + 1}"
            )

    @property
    def local_size(self) -> int:
        return self.last - self.first

    @property
    def local_edge_count(self) -> int:
        return len(self.adjncy)

    def is_local(self, v: int) -> bool:
        return self.first <= v < self.last

    def to_local(self, v: int) -> int:
        return v - self.first

    def owner(self, v: int) -> int:
        return block_owner(v, self.n_global, self.p)

    def neighbors(self, v_global: int) -> np.ndarray:
        """Neighbor list of a locally-owned vertex (global ids)."""
        i = self.to_local(v_global)
        return self.adjncy[self.xadj[i]: self.xadj[i + 1]]

    def neighbor_ranks(self) -> tuple[int, ...]:
        """Ranks reachable over at least one local edge (for graph topologies)."""
        if len(self.adjncy) == 0:
            return ()
        owners = {self.owner(int(t)) for t in np.unique(self.adjncy)}
        owners.discard(self.rank)
        return tuple(sorted(owners))


def from_edge_list(n_global: int, p: int, rank: int,
                   sources: np.ndarray, targets: np.ndarray) -> DistGraph:
    """Build the rank-local CSR from (locally-owned source, target) edge pairs."""
    first, last = block_bounds(n_global, p, rank)
    local_n = last - first
    sources = np.asarray(sources, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    if len(sources) and ((sources < first).any() or (sources >= last).any()):
        raise ValueError("all edge sources must be locally owned")
    order = np.argsort(sources, kind="stable")
    sources, targets = sources[order], targets[order]
    degrees = np.bincount(sources - first, minlength=local_n)
    xadj = np.concatenate(([0], np.cumsum(degrees))).astype(np.int64)
    return DistGraph(n_global, p, rank, xadj, targets.copy())
