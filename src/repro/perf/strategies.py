"""Per-strategy exchange cost formulas, mirroring the simulator's algorithms.

Every formula is the closed form of what the executing runtime does —
pairwise exchange for ``alltoallv``, Bruck/dissemination log-terms for
allgather/barrier, two sub-``alltoallv``s over √p-size communicators for the
grid, issend+ibarrier for NBX.  ``tests/perf`` cross-validates these against
virtual-time measurements from the executing simulator at small ``p``.
"""

from __future__ import annotations

import numpy as np

from repro.mpi.costmodel import CostModel
from repro.perf.families import BfsWorkload, LevelStats

_ELEM_BYTES = 8
#: per-edge CPU cost of frontier expansion (matches apps.graphs.bfs)
_EDGE_COST = 6.0e-9
#: group-table construction cost per member when creating a communicator
COMM_CREATE_PER_RANK = 2.0e-8


def _log2(p: int) -> float:
    return float(max(p - 1, 1).bit_length())


def exchange_cost(strategy: str, stats: LevelStats, p: int,
                  cm: CostModel) -> float:
    """Cost of one frontier exchange for one level, per the strategy."""
    nbytes = stats.cross_elems_per_rank * _ELEM_BYTES
    # direct strategies bottleneck on the rank with the largest fan-in
    k = max(stats.partners_max, stats.partners, 0.0)

    if strategy in ("mpi", "kamping"):
        # counts alltoall (p−1 zero/short messages) + pairwise alltoallv
        return 2.0 * (p - 1) * (cm.alpha + 2 * cm.overhead) \
            + (p - 1) * 4 * cm.beta + nbytes * cm.beta

    if strategy == "mpi_neighbor":
        # neighbor_alltoall of counts + neighbor_alltoallv of payloads
        return 2.0 * k * (cm.alpha + 2 * cm.overhead) + nbytes * cm.beta

    if strategy == "mpi_neighbor_rebuild":
        rebuild = p * COMM_CREATE_PER_RANK + _log2(p) * cm.alpha
        return rebuild + exchange_cost("mpi_neighbor", stats, p, cm)

    if strategy == "kamping_sparse":
        # k issends (+ matching receives) + one ibarrier (dissemination)
        return 2.0 * k * (cm.alpha + 2 * cm.overhead) \
            + 2.0 * _log2(p) * cm.alpha + nbytes * cm.beta

    if strategy == "kamping_grid":
        q = float(np.sqrt(p))
        # two hops, each an alltoallv (with count inference) over a
        # √p-size sub-communicator; payload triples to carry (src, dest)
        per_hop = 2.0 * (q - 1) * (cm.alpha + 2 * cm.overhead) \
            + 3.0 * nbytes * cm.beta
        return 2.0 * per_hop

    raise ValueError(f"unknown strategy {strategy!r}")


def bfs_time(strategy: str, workload: BfsWorkload, cm: CostModel) -> float:
    """Analytic makespan of a BFS run under one exchange strategy."""
    p = workload.p
    total = 0.0
    for stats in workload.levels:
        compute = stats.frontier_per_rank * workload.avg_degree * _EDGE_COST
        termination = 2.0 * _log2(p) * (cm.alpha + 2 * cm.overhead)
        total += compute + termination + exchange_cost(strategy, stats, p, cm)
    return total
