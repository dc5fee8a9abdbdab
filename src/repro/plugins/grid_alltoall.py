"""Grid all-to-all plugin (paper §V-A).

Routes all-to-all traffic over a virtual two-dimensional processor grid in
two hops: source → intermediate in the source's *row* holding the
destination's *column*, then intermediate → destination within that column.
Message start-up latency drops from Θ(p)·α (direct ``MPI_Alltoallv``) to
Θ(√p)·α, at the price of transporting each element twice and tagging it with
routing metadata — the latency-for-volume trade the paper describes, which
wins on low-locality graphs (Erdős-Rényi, RHG) at scale.

The grid is ``nrows × ncols`` with ``nrows · ncols = p`` and ``ncols`` the
largest divisor of ``p`` at most ``√p`` — exact for the power-of-two rank
counts the evaluation uses; a prime ``p`` degenerates to one row (direct
exchange), which is still correct.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from repro.core.communicator import _exclusive_prefix, _packer
from repro.core.errors import UsageError
from repro.core.named_params import send_buf, send_counts, recv_counts
from repro.core.parameters import Parameter
from repro.core.plans import CallPlan, OpSpec
from repro.core.plugins import CommunicatorPlugin, plugin_method


def _build_grid(plan: CallPlan):
    buf, counts = plan.index["send_buf"], plan.index["send_counts"]
    finish = _packer(plan, "recv_buf", "recv_counts")
    return lambda comm, params: finish(params, *comm._route_grid(
        np.asarray(params[buf].data), [int(c) for c in params[counts].data]))


_GRID_SPEC = OpSpec(
    name="alltoallv_grid",
    required=("send_buf", "send_counts"),
    out_allowed=("recv_buf", "recv_counts"),
    implicit_out=("recv_buf",),
    build=_build_grid,
)


def grid_dims(p: int) -> tuple[int, int]:
    """Grid dimensions ``(nrows, ncols)`` with ``nrows * ncols == p``."""
    ncols = 1
    d = 1
    while d * d <= p:
        if p % d == 0:
            ncols = d
        d += 1
    return p // ncols, ncols


class GridAlltoall(CommunicatorPlugin):
    """Adds ``alltoallv_grid`` to a communicator."""

    _grid_cache: Optional[tuple] = None

    def _grid(self):
        """Lazily build (and cache) the row/column sub-communicators."""
        if self._grid_cache is None:
            p, r = self.size, self.rank
            nrows, ncols = grid_dims(p)
            row, col = divmod(r, ncols)
            row_comm = self.split(color=row, key=col)
            col_comm = self.split(color=col, key=row)
            self._grid_cache = (nrows, ncols, row_comm, col_comm)
        return self._grid_cache

    @plugin_method
    def alltoallv_grid(self, *params: Parameter) -> Any:
        """Two-hop all-to-all: ``alltoallv_grid(send_buf(v), send_counts(c))``.

        Returns the received elements ordered by source rank; request the
        per-source counts with ``recv_counts_out()``.
        """
        return self._plans.lookup(_GRID_SPEC, params).run(self, params)

    def _route_grid(self, data: np.ndarray, counts: list[int]
                    ) -> tuple[np.ndarray, list[int]]:
        """The two hops; returns ``(received elements, per-source counts)``."""
        p, r = self.size, self.rank
        if len(counts) != p:
            raise UsageError(f"send_counts has {len(counts)} entries, expected {p}")
        nrows, ncols, row_comm, col_comm = self._grid()

        val_dtype = data.dtype if data.size else np.dtype(np.int64)
        routed = np.dtype(
            [("src", np.int64), ("dest", np.int64), ("val", val_dtype)]
        )

        # phase 1: within the row, to the intermediate holding col(dest)
        displs = _exclusive_prefix(counts)
        phase1 = np.empty(sum(counts), dtype=routed)
        phase1_counts = [0] * ncols
        offset = 0
        for dest in range(p):
            c = counts[dest]
            if c:
                block = phase1[offset: offset + c]
                block["src"] = r
                block["dest"] = dest
                block["val"] = data[displs[dest]: displs[dest] + c]
                offset += c
            phase1_counts[dest % ncols] += c
        order = np.argsort(phase1["dest"] % ncols, kind="stable")
        phase1 = phase1[order]
        mid = row_comm.alltoallv(send_buf(phase1), send_counts(phase1_counts))
        mid = np.asarray(mid, dtype=routed)

        # phase 2: within the column, to the final destination row
        dest_rows = mid["dest"] // ncols
        order = np.argsort(dest_rows, kind="stable")
        mid = mid[order]
        phase2_counts = np.bincount(dest_rows[order], minlength=nrows).tolist()
        final = col_comm.alltoallv(send_buf(mid), send_counts(phase2_counts))
        final = np.asarray(final, dtype=routed)

        # face the result in deterministic source order
        order = np.argsort(final["src"], kind="stable")
        final = final[order]
        return (final["val"].copy(),
                np.bincount(final["src"], minlength=p).tolist())
