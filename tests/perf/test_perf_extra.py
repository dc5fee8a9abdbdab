"""Additional performance-model coverage: monotonicity, internals, splicing."""

import numpy as np
import pytest

from repro.mpi import CostModel, FREE
from repro.perf import bfs_time, bfs_workload, samplesort_time
from repro.perf.families import LevelStats, bfs_workload as workload
from repro.perf.samplesort_model import BINDINGS
from repro.perf.strategies import COMM_CREATE_PER_RANK, exchange_cost
from repro.perf.sweep import SweepPoint, bfs_sweep, samplesort_sweep

CM = CostModel()


class TestWorkloadInternals:
    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            workload("smallworld", 16)

    def test_levels_positive_and_finite(self):
        for family in ("gnm", "rgg", "rhg"):
            for p in (4, 64, 4096):
                w = workload(family, p)
                assert len(w.levels) >= 1
                for s in w.levels:
                    assert s.frontier_per_rank >= 0
                    assert s.cross_elems_per_rank >= 0
                    assert 0 <= s.partners <= p - 1 or p == 1
                    assert s.partners_max >= s.partners

    def test_rgg_levels_grow_with_p(self):
        """Weak scaling grows the area, hence the diameter, hence the levels."""
        assert len(workload("rgg", 1024).levels) > len(workload("rgg", 64).levels)

    def test_gnm_levels_logarithmic(self):
        l64 = len(workload("gnm", 64).levels)
        l16384 = len(workload("gnm", 16384).levels)
        assert l16384 <= l64 + 4

    def test_partners_max_defaults_to_partners(self):
        s = LevelStats(1.0, 2.0, 5.0)
        assert s.partners_max == 5.0


class TestCostMonotonicity:
    STATS = LevelStats(100.0, 500.0, 10.0)

    @pytest.mark.parametrize("strategy", ["mpi", "mpi_neighbor",
                                          "mpi_neighbor_rebuild",
                                          "kamping_sparse", "kamping_grid"])
    def test_costs_increase_with_p(self, strategy):
        costs = [exchange_cost(strategy, self.STATS, p, CM)
                 for p in (16, 64, 256, 1024)]
        assert all(b >= a for a, b in zip(costs, costs[1:]))

    def test_volume_term_scales_with_bytes(self):
        small = LevelStats(1.0, 10.0, 4.0)
        large = LevelStats(1.0, 10_000.0, 4.0)
        for strategy in ("mpi", "kamping_grid", "kamping_sparse"):
            assert exchange_cost(strategy, large, 64, CM) \
                > exchange_cost(strategy, small, 64, CM)

    def test_grid_pays_triple_volume(self):
        stats = LevelStats(0.0, 10_000.0, 1.0)
        cm = CostModel(alpha=0.0, beta=1e-9, overhead=0.0)
        direct = exchange_cost("mpi", stats, 4, cm)
        grid = exchange_cost("kamping_grid", stats, 4, cm)
        assert grid == pytest.approx(6 * stats.cross_elems_per_rank * 8 * 1e-9)
        assert grid > direct

    def test_rebuild_penalty_linear_in_p(self):
        stats = LevelStats(0.0, 0.0, 0.0)
        delta = (exchange_cost("mpi_neighbor_rebuild", stats, 1024, CM)
                 - exchange_cost("mpi_neighbor", stats, 1024, CM))
        assert delta >= 1024 * COMM_CREATE_PER_RANK

    def test_bfs_time_sums_levels(self):
        w = workload("gnm", 64)
        total = bfs_time("mpi", w, CM)
        per_level = [exchange_cost("mpi", s, 64, CM) for s in w.levels]
        assert total > sum(per_level)  # plus compute and termination terms


class TestSamplesortModel:
    def test_zero_elements(self):
        for b in BINDINGS:
            assert samplesort_time(b, 64, 0, CM) >= 0

    def test_weak_scaling_monotone_in_p(self):
        for b in BINDINGS:
            t = [samplesort_time(b, p, 10**5, CM) for p in (16, 256, 4096)]
            assert t[0] <= t[1] <= t[2], b

    def test_free_model_leaves_compute_only(self):
        t = samplesort_time("MPI", 64, 10**5, FREE)
        assert t > 0  # local sorting work remains
        assert t == samplesort_time("KaMPIng", 64, 10**5, FREE)


class TestSweep:
    def test_points_are_dataclasses_with_sources(self):
        pts = samplesort_sweep("MPI", [2, 64], 1000, simulator_max_p=2)
        assert isinstance(pts[0], SweepPoint)
        assert pts[0].source == "simulated" and pts[1].source == "model"

    def test_bfs_sweep_runs_all_strategies_simulated(self):
        for strategy in ("mpi", "kamping"):
            pts = bfs_sweep("gnm", strategy, [2], n_per_rank=16,
                            avg_degree=4.0, simulator_max_p=2)
            assert pts[0].seconds > 0

    def test_custom_cost_model_flows_through(self):
        slow = CostModel(alpha=1.0, beta=0.0, overhead=0.0)
        fast = CostModel(alpha=1e-9, beta=0.0, overhead=0.0)
        t_slow = samplesort_sweep("MPI", [64], 1000, cost_model=slow,
                                  simulator_max_p=0)[0].seconds
        t_fast = samplesort_sweep("MPI", [64], 1000, cost_model=fast,
                                  simulator_max_p=0)[0].seconds
        assert t_slow > t_fast
