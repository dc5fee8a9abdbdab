"""Size-constrained label propagation — the dKaMinPar component (paper §IV-B).

The paper extracts the shared logic of the clustering component into a base
class (202 LoC) and compares three implementations of the MPI-heavy part:
dKaMinPar's own graph-specific abstraction layer (106 LoC), plain MPI
(154 LoC, +17.5%), and KaMPIng (127 LoC, between the two) — all with equal
running times.  This module mirrors that structure:

- :class:`LabelPropagationBase` — the shared local logic: each vertex joins
  the neighboring cluster with the strongest connection, subject to a
  maximum cluster size;
- three subclasses implementing ghost-label exchange and cluster-size
  synchronization with the specialized layer, plain MPI, and KaMPIng.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.apps.graphs.ghost_layer import GraphCommLayer
from repro.apps.graphs.graph import DistGraph
from repro.core import Communicator, send_buf
from repro.mpi.context import RawComm
from repro.mpi.ops import SUM

#: calibrated per-edge CPU cost of one LP sweep
_EDGE_COST = 8.0e-9


class LabelPropagationBase:
    """Shared logic of size-constrained label propagation.

    Subclasses provide ``_exchange_labels`` (deliver changed labels of owned
    vertices to every rank referencing them) and ``_sync_cluster_sizes``
    (globally accumulate size deltas).

    Like dKaMinPar's asynchronous clustering, the size constraint is checked
    against the *round-stale* global cluster sizes: ranks moving vertices
    into the same cluster concurrently can transiently overshoot the limit
    by up to the number of concurrent joiners.  The overshoot is bounded and
    deterministic; the exact partition is identical across all three
    communication variants.
    """

    def __init__(self, graph: DistGraph, max_cluster_size: int):
        self.g = graph
        self.max_cluster_size = max_cluster_size
        n_local = graph.local_size
        #: current label (cluster id) of every local vertex
        self.labels = np.arange(graph.first, graph.last, dtype=np.int64)
        #: labels of remote vertices we have edges to
        self.ghost_labels: dict[int, int] = {}
        for t in np.unique(graph.adjncy):
            t = int(t)
            if not graph.is_local(t):
                self.ghost_labels[t] = t
        #: global cluster sizes (dense; simulator-scale graphs are small)
        self.cluster_sizes = np.ones(graph.n_global, dtype=np.int64)
        #: ranks that reference each local vertex (interface replication)
        self.interested: list[tuple[int, ...]] = []
        for lv in range(n_local):
            nbrs = graph.neighbors(graph.first + lv)
            owners = {graph.owner(int(t)) for t in nbrs} - {graph.rank}
            self.interested.append(tuple(sorted(owners)))

    # -- shared local sweep -------------------------------------------------

    def label_of(self, v: int) -> int:
        if self.g.is_local(v):
            return int(self.labels[self.g.to_local(v)])
        return self.ghost_labels[v]

    def _best_label(self, lv: int) -> Optional[int]:
        """Strongest-connection label move for one vertex, size-constrained."""
        v = self.g.first + lv
        current = int(self.labels[lv])
        weights: dict[int, int] = {}
        for t in self.g.neighbors(v):
            weights[self.label_of(int(t))] = weights.get(
                self.label_of(int(t)), 0) + 1
        best, best_w = current, weights.get(current, 0)
        for label, w in sorted(weights.items()):
            if label == current:
                continue
            if w > best_w and (
                self.cluster_sizes[label] + 1 <= self.max_cluster_size
            ):
                best, best_w = label, w
        return best if best != current else None

    def sweep(self) -> tuple[list[int], np.ndarray]:
        """One local pass; returns changed local vertices and size deltas."""
        changed: list[int] = []
        deltas = np.zeros(self.g.n_global, dtype=np.int64)
        for lv in range(self.g.local_size):
            new = self._best_label(lv)
            if new is None:
                continue
            old = int(self.labels[lv])
            self.labels[lv] = new
            deltas[old] -= 1
            deltas[new] += 1
            # keep the local view fresh within the sweep
            self.cluster_sizes[old] -= 1
            self.cluster_sizes[new] += 1
            changed.append(lv)
        self._charge(self.g.local_edge_count)
        return changed, deltas

    def run(self, rounds: int) -> np.ndarray:
        """Run ``rounds`` sweeps with exchanges in between; returns labels."""
        for _ in range(rounds):
            changed, deltas = self.sweep()
            # undo the local size updates; the global sync re-applies them
            self.cluster_sizes -= deltas
            self._exchange_labels(changed)
            self._sync_cluster_sizes(deltas)
        return self.labels

    def _bucket_changes(self, changed: list[int]) -> dict[int, list[int]]:
        """Bucket (vertex, label) updates by interested rank."""
        buckets: dict[int, list[int]] = {}
        for lv in changed:
            v = self.g.first + lv
            for rank in self.interested[lv]:
                buckets.setdefault(rank, []).extend((v, int(self.labels[lv])))
        return buckets

    def _apply_updates(self, flat: np.ndarray) -> None:
        pairs = np.asarray(flat, dtype=np.int64).reshape(-1, 2)
        for v, label in pairs:
            self.ghost_labels[int(v)] = int(label)

    def _charge(self, edges: int) -> None:
        raise NotImplementedError

    def _exchange_labels(self, changed: list[int]) -> None:
        raise NotImplementedError

    def _sync_cluster_sizes(self, deltas: np.ndarray) -> None:
        raise NotImplementedError


class LabelPropagationMPI(LabelPropagationBase):
    """Plain-MPI variant: counts, displacements, and buffers by hand."""

    def __init__(self, graph: DistGraph, max_cluster_size: int, comm: RawComm):
        super().__init__(graph, max_cluster_size)
        self.comm = comm

    def _charge(self, edges: int) -> None:
        self.comm.compute(_EDGE_COST * edges)

    def _exchange_labels(self, changed: list[int]) -> None:
        p = self.comm.size
        buckets = self._bucket_changes(changed)
        counts = [0] * p
        parts = []
        for dest in range(p):
            items = buckets.get(dest, ())
            counts[dest] = len(items)
            if len(items):
                parts.append(np.asarray(items, dtype=np.int64))
        if parts:
            sendbuf = np.concatenate(parts)
        else:
            sendbuf = np.empty(0, dtype=np.int64)
        rcounts = self.comm.alltoall(counts)
        total = 0
        for c in rcounts:
            total += c
        recvbuf = np.empty(total, dtype=np.int64)
        recvbuf[:] = self.comm.alltoallv(sendbuf, counts, rcounts)
        self._apply_updates(recvbuf)

    def _sync_cluster_sizes(self, deltas: np.ndarray) -> None:
        summed = self.comm.allreduce(deltas, SUM)
        self.cluster_sizes += summed


class LabelPropagationKamping(LabelPropagationBase):
    """KaMPIng variant: count inference and in-place reduction."""

    def __init__(self, graph: DistGraph, max_cluster_size: int,
                 comm: Communicator):
        super().__init__(graph, max_cluster_size)
        self.comm = comm

    def _charge(self, edges: int) -> None:
        self.comm.compute(_EDGE_COST * edges)

    def _exchange_labels(self, changed: list[int]) -> None:
        from repro.core import with_flattened

        buckets = self._bucket_changes(changed)
        flat = with_flattened(buckets, self.comm.size)
        recvbuf = flat.call(lambda *params: self.comm.alltoallv(*params))
        self._apply_updates(recvbuf)

    def _sync_cluster_sizes(self, deltas: np.ndarray) -> None:
        from repro.core import op

        summed = self.comm.allreduce(send_buf(deltas), op(SUM))
        self.cluster_sizes += summed


class LabelPropagationSpecialized(LabelPropagationBase):
    """dKaMinPar-style variant: graph-specific primitives do all the work."""

    def __init__(self, graph: DistGraph, max_cluster_size: int,
                 layer: GraphCommLayer):
        super().__init__(graph, max_cluster_size)
        self.layer = layer

    def _charge(self, edges: int) -> None:
        self.layer.charge(_EDGE_COST * edges)

    def _exchange_labels(self, changed: list[int]) -> None:
        updates = self.layer.exchange_vertex_values(
            self.g, changed, self.labels, self.interested
        )
        self._apply_updates(updates)

    def _sync_cluster_sizes(self, deltas: np.ndarray) -> None:
        self.cluster_sizes += self.layer.accumulate(deltas)
