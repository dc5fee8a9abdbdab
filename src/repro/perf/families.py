"""Analytic per-level BFS workload statistics for the three graph families.

Each model produces, for every BFS level, the per-rank frontier size, the
number of elements crossing rank boundaries, and the number of distinct
communication partners.  The parameters are *calibrated against the actual
generators* of :mod:`repro.apps.graphs.generators`:

===========  =====================================================  =========
family       communication partners per rank                        levels
===========  =====================================================  =========
GNM          ``p − 1`` (targets uniform; measured: saturates fully) ~log_d(n)
RGG-2D       ≈ 4–8, constant in p (measured 4–7 at p ≤ 64)          ≈1.15·√2/r
RHG          ≈ 1.9·log₂ p on average, hubs ≈ 4·log₂ p               ~log n
===========  =====================================================  =========

Cross-boundary edge fractions (measured): GNM ``1 − 1/p``, RGG ≈ 0.09,
RHG ≈ 0.08.  ``tests/perf/test_model_calibration.py`` re-measures these
against the generators so drift is caught.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.graphs.generators import rgg_radius

#: measured cross-boundary edge fractions
CROSS_FRAC = {"gnm": None, "rgg": 0.09, "rhg": 0.08}  # gnm: 1 - 1/p


@dataclass(frozen=True)
class LevelStats:
    """Per-rank statistics of one BFS level (averages over active ranks)."""

    #: frontier vertices handled per active rank
    frontier_per_rank: float
    #: elements sent to *other* ranks, per active rank
    cross_elems_per_rank: float
    #: distinct destination ranks per active rank (average)
    partners: float
    #: distinct partners at the *bottleneck* rank (hub fan-in; makespan is
    #: governed by this rank for direct exchange strategies)
    partners_max: float = 0.0
    #: fraction of ranks active this level (RGG wavefronts are sparse)
    active_fraction: float = 1.0

    def __post_init__(self):
        if self.partners_max < self.partners:
            object.__setattr__(self, "partners_max", self.partners)


@dataclass(frozen=True)
class BfsWorkload:
    family: str
    p: int
    n_per_rank: int
    avg_degree: float
    levels: tuple[LevelStats, ...]


def _gnm_levels(p: int, n_per: int, deg: float) -> tuple[LevelStats, ...]:
    n = n_per * p
    shares = []
    frontier = 1.0
    remaining = float(n)
    while remaining > 0.5:
        take = min(frontier, remaining)
        shares.append(take)
        remaining -= take
        frontier = take * deg
    cross = 1.0 - 1.0 / p
    out = []
    for s in shares:
        per_rank = s / p
        msgs = per_rank * deg * cross
        partners = min(p - 1.0, msgs)
        out.append(LevelStats(per_rank, msgs, max(partners, 0.0)))
    return tuple(out)


def _rgg_levels(p: int, n_per: int, deg: float) -> tuple[LevelStats, ...]:
    n = n_per * p
    r = rgg_radius(n, deg)
    num_levels = max(int(np.ceil(1.15 * np.sqrt(2.0) / r)), 1)
    cross = CROSS_FRAC["rgg"]
    out = []
    hop = np.sqrt(2.0) / num_levels  # radial progress per level
    cell = 1.0 / np.sqrt(p)
    total_assigned = 0.0
    for lvl in range(num_levels):
        d = (lvl + 0.5) * hop
        # area of the annulus clipped to the unit square (crude but adequate)
        area = min(np.pi * 2.0 * d * hop, 1.0 - total_assigned)
        area = max(area, 0.0)
        total_assigned += area
        frontier_total = area * n
        active_ranks = min(p, max(2.0 * np.pi * d / cell, 1.0))
        per_rank = frontier_total / active_ranks
        msgs = per_rank * deg * cross
        out.append(LevelStats(per_rank, msgs, min(8.0, p - 1.0),
                              active_fraction=active_ranks / p))
    return tuple(out)


def _rhg_levels(p: int, n_per: int, deg: float) -> tuple[LevelStats, ...]:
    n = n_per * p
    num_levels = max(int(round(1.1 * np.log2(n))) - 4, 3)
    cross = CROSS_FRAC["rhg"]
    # frontier mass concentrates in 2–3 central levels (measured)
    weights = np.exp(-0.5 * ((np.arange(num_levels) - num_levels / 3.0)
                             / 1.2) ** 2)
    weights /= weights.sum()
    partners = min(p - 1.0, 1.9 * np.log2(max(p, 2)))
    # the hub rank's fan-in saturates at its hub vertex's degree
    # (power-law: max degree ~ n^{1/(gamma-1)}), measured to approach p-1
    # once the hub degree exceeds the rank count
    hub_degree = float(n) ** (1.0 / 1.9)
    partners_hub = min(p - 1.0, hub_degree)
    out = []
    for w in weights:
        per_rank = w * n / p
        msgs = per_rank * deg * cross
        out.append(LevelStats(
            per_rank, msgs,
            max(min(partners, msgs), 0.0),
            partners_max=max(min(partners_hub, msgs * p), 0.0),
        ))
    return tuple(out)


def bfs_workload(family: str, p: int, n_per_rank: int = 4096,
                 avg_degree: float = 16.0) -> BfsWorkload:
    """Workload statistics for one (family, p) weak-scaling point."""
    if family == "gnm":
        levels = _gnm_levels(p, n_per_rank, avg_degree)
    elif family == "rgg":
        levels = _rgg_levels(p, n_per_rank, avg_degree)
    elif family == "rhg":
        levels = _rhg_levels(p, n_per_rank, avg_degree)
    else:
        raise ValueError(f"unknown family {family!r}")
    return BfsWorkload(family, p, n_per_rank, avg_degree, levels)
