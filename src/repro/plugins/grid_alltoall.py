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

from dataclasses import replace
from typing import Any

from repro.core.parameters import Parameter
from repro.core.plugins import plugin_method
from repro.plugins.hierarchical_alltoall import (_SPEC, HierarchicalAlltoall,
                                                 balanced_dims)

#: the hypergrid contract and builder; usage errors name ``alltoallv_grid``
_GRID_SPEC = replace(_SPEC, name="alltoallv_grid")


def grid_dims(p: int) -> tuple[int, int]:
    """Grid dimensions ``(nrows, ncols)`` with ``nrows * ncols == p``."""
    ncols, nrows = balanced_dims(p, 2)
    return nrows, ncols


class GridAlltoall(HierarchicalAlltoall):
    """Adds ``alltoallv_grid`` to a communicator: the hypergrid exchange of
    :mod:`repro.plugins.hierarchical_alltoall` with ``d = 2``."""

    @plugin_method
    def alltoallv_grid(self, *params: Parameter) -> Any:
        """Two-hop all-to-all: ``alltoallv_grid(send_buf(v), send_counts(c))``.

        Returns the received elements ordered by source rank; request the
        per-source counts with ``recv_counts_out()``.
        """
        return self._plans.lookup(_GRID_SPEC, params).run(self, params, 2)
