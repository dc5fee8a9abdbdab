"""Higher-dimensional indirect all-to-all with message aggregation (paper §VI).

The paper's future-work section announces "generalizing the indirection
patterns for all-to-all primitives to higher dimensions, while also
incorporating message aggregation".  This plugin implements that
generalization: the 2D grid of :mod:`repro.plugins.grid_alltoall` becomes a
**d-dimensional torus**; a message travels at most ``d`` hops, correcting one
coordinate per hop, and all payload travelling between the same pair of
processes in a hop is **aggregated into a single message**.

Cost structure: per hop one alltoallv over a communicator of size
``p^(1/d)`` ⇒ start-up latency Θ(d · p^{1/d}) instead of Θ(p), at the price
of shipping each element up to ``d`` times plus a routing header.
``d = 1`` degenerates to the direct exchange, ``d = 2`` *is* the grid plugin
(``alltoallv_grid`` runs this module's plan); larger ``d`` trades more volume
for even lower latency — useful at extreme scale or for very small messages.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from repro.core.communicator import _exclusive_prefix, _packer
from repro.core.errors import UsageError
from repro.core.named_params import send_buf, send_counts
from repro.core.parameters import Parameter
from repro.core.plans import CallPlan, OpSpec
from repro.core.plugins import CommunicatorPlugin, plugin_method
from repro.plugins.sorter import partition


def _build_hypergrid(plan: CallPlan):
    buf, counts = plan.index["send_buf"], plan.index["send_counts"]
    finish = _packer(plan, "recv_buf", "recv_counts")
    return lambda comm, params, d: finish(params, *comm._route_hypergrid(
        np.asarray(params[buf].data), [int(c) for c in params[counts].data], d))


_SPEC = OpSpec(
    name="alltoallv_hypergrid",
    required=("send_buf", "send_counts"),
    out_allowed=("recv_buf", "recv_counts"),
    implicit_out=("recv_buf",),
    build=_build_hypergrid,
)


def balanced_dims(p: int, d: int) -> tuple[int, ...]:
    """Factor ``p`` into ``d`` near-equal dimensions (product exactly ``p``).

    Greedy: repeatedly split off the largest divisor ≤ the ideal d-th root.
    Prime factors that cannot be split pile into the last dimension, so prime
    ``p`` degenerates gracefully (one long dimension = direct exchange).
    """
    if d < 1:
        raise UsageError(f"dimension must be >= 1, got {d}")
    dims: list[int] = []
    remaining = p
    for k in range(d - 1, 0, -1):
        ideal = max(int(round(remaining ** (1.0 / (k + 1)))), 1)
        best = 1
        for cand in range(ideal, 0, -1):
            if remaining % cand == 0:
                best = cand
                break
        # also look slightly upward for a closer divisor
        for cand in range(ideal + 1, min(ideal * 2, remaining) + 1):
            if remaining % cand == 0 and abs(cand - ideal) < abs(best - ideal):
                best = cand
                break
        dims.append(best)
        remaining //= best
    dims.append(remaining)
    return tuple(sorted(dims))


def rank_to_coords(rank: int, dims: Sequence[int]) -> tuple[int, ...]:
    """Mixed-radix decomposition of a rank into torus coordinates."""
    coords = []
    for n in dims:
        coords.append(rank % n)
        rank //= n
    return tuple(coords)


def coords_to_rank(coords: Sequence[int], dims: Sequence[int]) -> int:
    rank = 0
    stride = 1
    for c, n in zip(coords, dims):
        rank += c * stride
        stride *= n
    return rank


class HierarchicalAlltoall(CommunicatorPlugin):
    """Adds ``alltoallv_hypergrid`` (d-hop aggregated all-to-all)."""

    _hyper_cache: Optional[dict] = None

    def _axes(self, d: int):
        """Sub-communicators along each torus axis (cached per dimension)."""
        if self._hyper_cache is None:
            self._hyper_cache = {}
        if d not in self._hyper_cache:
            p, r = self.size, self.rank
            dims = balanced_dims(p, d)
            coords = rank_to_coords(r, dims)
            axis_comms = []
            for axis in range(d):
                # color = all coordinates except `axis` frozen (exact
                # mixed-radix encoding, collision-free)
                other = [c for i, c in enumerate(coords) if i != axis]
                other_dims = [n for i, n in enumerate(dims) if i != axis]
                color = axis * p + coords_to_rank(other, other_dims)
                axis_comms.append(self.split(color=color, key=coords[axis]))
            self._hyper_cache[d] = (dims, coords, axis_comms)
        return self._hyper_cache[d]

    @plugin_method
    def alltoallv_hypergrid(self, *params: Parameter, d: int = 3) -> Any:
        """d-hop all-to-all: ``alltoallv_hypergrid(send_buf(v), send_counts(c), d=3)``.

        Hop ``k`` fixes the k-th torus coordinate; all elements moving between
        the same pair of ranks within a hop travel as one aggregated message.
        Returns elements ordered by source rank; request per-source counts
        with ``recv_counts_out()``.
        """
        return self._plans.lookup(_SPEC, params).run(self, params, d)

    def _route_hypergrid(self, data: np.ndarray, counts: list[int], d: int
                         ) -> tuple[np.ndarray, list[int]]:
        """The d hops; returns ``(received elements, per-source counts)``."""
        p, r = self.size, self.rank
        if len(counts) != p:
            raise UsageError(f"send_counts has {len(counts)} entries, expected {p}")
        dims, coords, axis_comms = self._axes(d)

        val_dtype = data.dtype if data.size else np.dtype(np.int64)
        routed = np.dtype(
            [("src", np.int64), ("dest", np.int64), ("val", val_dtype)]
        )
        displs = _exclusive_prefix(counts)
        current = np.empty(sum(counts), dtype=routed)
        offset = 0
        for dest in range(p):
            c = counts[dest]
            if c:
                block = current[offset: offset + c]
                block["src"] = r
                block["dest"] = dest
                block["val"] = data[displs[dest]: displs[dest] + c]
                offset += c

        for axis in range(len(dims)):
            # aggregate: bucket by the destination's coordinate along `axis`
            axis_coord = (current["dest"] // int(np.prod(dims[:axis], dtype=np.int64))
                          ) % dims[axis]
            order, hop_counts = partition(axis_coord, dims[axis])
            received = axis_comms[axis].alltoallv(
                send_buf(current[order]), send_counts(hop_counts.tolist())
            )
            current = np.asarray(received, dtype=routed)

        order, counts = partition(current["src"], p)
        return current["val"][order], counts.tolist()
