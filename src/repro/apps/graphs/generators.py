"""Communication-free distributed graph generators (paper §V-A, citing [38]).

Three families with the locality/degree properties the BFS evaluation
(Fig. 10) depends on:

- **GNM** (Erdős–Rényi G(n,m)): no locality — edge targets are uniform over
  all ranks — and small diameter.  Frontier exchanges talk to *every* rank.
- **RGG-2D** (random geometric graph): ranks own cells of a 2D grid over the
  unit square; edges only reach nearby cells ⇒ high locality, high diameter.
- **RHG** (random hyperbolic graph): power-law degrees (hubs near the disk
  center connect globally), moderate locality in the angular coordinate,
  small diameter.

All generators are *communication-free* (the technique of Funke et al.):
every rank can regenerate any other rank's points deterministically from the
shared seed, so cross-boundary edges are computed without messages and the
global graph is identical regardless of ``p``'s decomposition — which the
tests exploit by comparing against a sequentially-generated reference.

GNM produces directed out-edges (each rank draws targets for its own
sources); use :func:`symmetrize` — itself a nice KaMPIng exercise — to make
any graph undirected.
"""

from __future__ import annotations

import numpy as np

from repro.apps.graphs.graph import (
    DistGraph, block_bounds, block_owners, from_edge_list,
)
from repro.core import Communicator, send_buf, send_counts
from repro.plugins.grid_alltoall import grid_dims
from repro.plugins.sorter import partition


# ---------------------------------------------------------------------------
# GNM — Erdős–Rényi
# ---------------------------------------------------------------------------

def generate_gnm(n_per_rank: int, m_per_rank: int, p: int, rank: int,
                 seed: int = 1) -> DistGraph:
    """G(n, m): ``m_per_rank`` out-edges with uniform global targets."""
    n_global = n_per_rank * p
    first, last = block_bounds(n_global, p, rank)
    rng = np.random.default_rng((seed, 0xE5, rank))
    sources = rng.integers(first, last, size=m_per_rank, dtype=np.int64)
    targets = rng.integers(0, n_global, size=m_per_rank, dtype=np.int64)
    keep = sources != targets  # drop self-loops
    return from_edge_list(n_global, p, rank, sources[keep], targets[keep])


# ---------------------------------------------------------------------------
# RGG-2D — random geometric graph on a 2D processor grid
# ---------------------------------------------------------------------------

def rgg_radius(n_global: int, avg_degree: float) -> float:
    """Connectivity radius giving the requested expected degree."""
    return float(np.sqrt(avg_degree / (np.pi * n_global)))


def _rgg_cell_points(n_per_rank: int, p: int, cell_rank: int,
                     seed: int) -> np.ndarray:
    """Deterministically (re)generate the points of one rank's grid cell."""
    nrows, ncols = grid_dims(p)
    row, col = divmod(cell_rank, ncols)
    rng = np.random.default_rng((seed, 0x266, cell_rank))
    pts = rng.random((n_per_rank, 2))
    pts[:, 0] = (col + pts[:, 0]) / ncols
    pts[:, 1] = (row + pts[:, 1]) / nrows
    return pts


def generate_rgg2d(n_per_rank: int, avg_degree: float, p: int, rank: int,
                   seed: int = 1) -> DistGraph:
    """RGG over the unit square; undirected by construction.

    Each rank regenerates the points of every cell within connectivity reach
    of its own cell (usually just the 8 adjacent cells) and keeps the edges
    whose source it owns.
    """
    n_global = n_per_rank * p
    radius = rgg_radius(n_global, avg_degree)
    nrows, ncols = grid_dims(p)
    row, col = divmod(rank, ncols)
    reach_r = int(np.ceil(radius * nrows)) if nrows > 1 else 0
    reach_c = int(np.ceil(radius * ncols)) if ncols > 1 else 0

    local_pts = _rgg_cell_points(n_per_rank, p, rank, seed)
    cand_pts = [local_pts]
    cand_ids = [np.arange(rank * n_per_rank, (rank + 1) * n_per_rank,
                          dtype=np.int64)]
    for dr in range(-reach_r, reach_r + 1):
        for dc in range(-reach_c, reach_c + 1):
            rr, cc = row + dr, col + dc
            if (dr, dc) == (0, 0) or not (0 <= rr < nrows and 0 <= cc < ncols):
                continue
            other = rr * ncols + cc
            cand_pts.append(_rgg_cell_points(n_per_rank, p, other, seed))
            cand_ids.append(np.arange(other * n_per_rank,
                                      (other + 1) * n_per_rank, dtype=np.int64))
    points = np.concatenate(cand_pts)
    ids = np.concatenate(cand_ids)

    sources, targets = [], []
    local_ids = cand_ids[0]
    r2 = radius * radius
    for i in range(n_per_rank):
        d2 = ((points - local_pts[i]) ** 2).sum(axis=1)
        hit = (d2 <= r2) & (ids != local_ids[i])
        nbrs = ids[hit]
        sources.append(np.full(len(nbrs), local_ids[i], dtype=np.int64))
        targets.append(nbrs)
    return from_edge_list(
        n_global, p, rank,
        np.concatenate(sources) if sources else np.empty(0, dtype=np.int64),
        np.concatenate(targets) if targets else np.empty(0, dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# RHG — random hyperbolic graph
# ---------------------------------------------------------------------------

def rhg_disk_radius(n_global: int, avg_degree: float) -> float:
    """First-order disk radius for the target average degree (Krioukov model)."""
    return float(2.0 * np.log(8.0 * n_global / (np.pi * max(avg_degree, 1e-9))))


def _rhg_sector_points(n_per_rank: int, p: int, sector: int, seed: int,
                       disk_r: float, alpha: float
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Deterministically (re)generate one sector's points ``(theta, r)``."""
    rng = np.random.default_rng((seed, 0x449, sector))
    lo = 2.0 * np.pi * sector / p
    hi = 2.0 * np.pi * (sector + 1) / p
    theta = rng.uniform(lo, hi, size=n_per_rank)
    # radial CDF: (cosh(alpha r) - 1) / (cosh(alpha R) - 1)
    u = rng.random(n_per_rank)
    r = np.arccosh(1.0 + u * (np.cosh(alpha * disk_r) - 1.0)) / alpha
    return theta, r


def _hyp_connected(theta_u: float, r_u: float, thetas: np.ndarray,
                   rs: np.ndarray, disk_r: float) -> np.ndarray:
    """Vectorized hyperbolic-distance threshold test against candidates."""
    dtheta = np.abs(thetas - theta_u)
    dtheta = np.minimum(dtheta, 2.0 * np.pi - dtheta)
    cosh_d = (np.cosh(r_u) * np.cosh(rs)
              - np.sinh(r_u) * np.sinh(rs) * np.cos(dtheta))
    return cosh_d <= np.cosh(disk_r)


def generate_rhg(n_per_rank: int, avg_degree: float, p: int, rank: int,
                 seed: int = 1, gamma: float = 2.9) -> DistGraph:
    """RHG with power-law exponent ``gamma``; undirected by construction.

    Ranks own angular sectors and regenerate every sector's points
    deterministically, then keep the edges incident to their own points via
    a vectorized hyperbolic-distance test.  (Simulator-scale graphs are
    small; a production generator would prune candidates with an angular
    window, which does not change the produced graph.)
    """
    n_global = n_per_rank * p
    disk_r = rhg_disk_radius(n_global, avg_degree)
    alpha = (gamma - 1.0) / 2.0

    all_theta, all_r, all_ids = [], [], []
    for sector in range(p):
        th, rr = _rhg_sector_points(n_per_rank, p, sector, seed, disk_r, alpha)
        all_theta.append(th)
        all_r.append(rr)
        all_ids.append(np.arange(sector * n_per_rank, (sector + 1) * n_per_rank,
                                 dtype=np.int64))
    theta = np.concatenate(all_theta)
    radius = np.concatenate(all_r)
    ids = np.concatenate(all_ids)

    local_slice = slice(rank * n_per_rank, (rank + 1) * n_per_rank)
    sources, targets = [], []
    for i in range(local_slice.start, local_slice.stop):
        hit = _hyp_connected(theta[i], radius[i], theta, radius, disk_r)
        hit[i] = False
        nbrs = ids[hit]
        sources.append(np.full(len(nbrs), ids[i], dtype=np.int64))
        targets.append(nbrs)
    return from_edge_list(
        n_global, p, rank,
        np.concatenate(sources) if sources else np.empty(0, dtype=np.int64),
        np.concatenate(targets) if targets else np.empty(0, dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# symmetrization (a KaMPIng exercise in itself)
# ---------------------------------------------------------------------------

def symmetrize(comm: Communicator, graph: DistGraph) -> DistGraph:
    """Make a distributed graph undirected with one count-inferring alltoallv.

    Each rank ships the reversed copy of every edge to the reverse source's
    owner, merges, and deduplicates.
    """
    p = comm.size
    rev_src = graph.adjncy  # reversed edges: target becomes source
    local_v = np.repeat(
        np.arange(graph.first, graph.last, dtype=np.int64),
        np.diff(graph.xadj),
    )
    order, counts = partition(block_owners(rev_src, graph.n_global, graph.p), p)
    pairs = np.empty(2 * len(rev_src), dtype=np.int64)
    pairs[0::2] = rev_src[order]
    pairs[1::2] = local_v[order]
    flat = comm.alltoallv(send_buf(pairs), send_counts((2 * counts).tolist()))
    incoming = np.asarray(flat).reshape(-1, 2)

    all_src = np.concatenate([local_v, incoming[:, 0]])
    all_tgt = np.concatenate([graph.adjncy, incoming[:, 1]])
    edge_keys = all_src * graph.n_global + all_tgt
    _, unique_idx = np.unique(edge_keys, return_index=True)
    return from_edge_list(graph.n_global, p, graph.rank,
                          all_src[unique_idx], all_tgt[unique_idx])
