"""Virtual-time semantics of the cost model."""

import numpy as np
import pytest

from repro.mpi import FREE, CollectiveEngine, CostModel, SUM, run_mpi
from tests.conftest import runp

CM = CostModel(alpha=1e-3, beta=1e-6, overhead=0.0)


def _times(fn, p, cm=CM):
    return run_mpi(fn, p, cost_model=cm).times


def test_free_model_costs_nothing():
    def main(comm):
        comm.allgather(comm.rank)
        comm.barrier()
        comm.send(np.arange(10), (comm.rank + 1) % comm.size)
        comm.recv((comm.rank - 1) % comm.size)

    times = _times(main, 4, FREE)
    assert all(t == 0.0 for t in times)


def test_p2p_latency_and_bandwidth():
    def main(comm):
        if comm.rank == 0:
            comm.send(np.zeros(1000, dtype=np.int64), 1)  # 8000 bytes
            return comm.clock.now
        comm.recv(0)
        return comm.clock.now

    times = run_mpi(main, 2, cost_model=CM).values
    expected = CM.alpha + 8000 * CM.beta
    assert times[1] == pytest.approx(expected, rel=1e-6)


def test_compute_charges_clock():
    def main(comm):
        comm.compute(0.5)
        return comm.clock.now, comm.clock.compute_seconds

    now, comp = runp(main, 1, cost_model=CM).values[0]
    assert now == 0.5 and comp == 0.5


def test_negative_compute_rejected():
    def main(comm):
        comm.compute(-1.0)

    with pytest.raises(RuntimeError, match="non-negative"):
        runp(main, 1)


def test_barrier_latency_logarithmic():
    def time_barrier(p):
        def main(comm):
            comm.barrier()
            return comm.clock.now

        return max(run_mpi(main, p, cost_model=CM).values)

    t4, t16 = time_barrier(4), time_barrier(16)
    # dissemination: ceil(log2 p) rounds
    assert t16 == pytest.approx(2 * t4, rel=0.2)


def test_alltoallv_latency_linear_in_p():
    def time_a2a(p):
        def main(comm):
            counts = [1] * comm.size
            comm.alltoallv(np.zeros(comm.size, dtype=np.int64), counts, counts)
            return comm.clock.now

        # pins the default (pairwise) schedule: blind to REPRO_COLL_*
        return max(run_mpi(main, p, cost_model=CM,
                           engine=CollectiveEngine(CM, env={})).values)

    t4, t16 = time_a2a(4), time_a2a(16)
    assert t16 / t4 == pytest.approx(15 / 3, rel=0.3)


def test_receiver_waits_for_message_arrival():
    def main(comm):
        if comm.rank == 0:
            comm.compute(1.0)  # sender is late
            comm.send(1, 1)
            return comm.clock.now
        comm.recv(0)
        return comm.clock.now

    values = run_mpi(main, 2, cost_model=CM).values
    assert values[1] >= 1.0 + CM.alpha


def test_comm_and_compute_breakdown():
    def main(comm):
        comm.compute(0.25)
        comm.barrier()

    res = run_mpi(main, 2, cost_model=CM)
    assert all(c == pytest.approx(0.25) for c in res.compute_seconds)
    assert all(c > 0 for c in res.comm_seconds)
    assert res.max_time == pytest.approx(
        max(res.comm_seconds[i] + res.compute_seconds[i] for i in range(2)),
        rel=1e-6,
    )


def test_packed_path_costs_more():
    """alltoallw (derived-datatype path) must exceed plain alltoall."""
    cm = CostModel(alpha=1e-4, beta=1e-7, overhead=0.0,
                   pack_beta=1e-6, dtype_alpha=1e-3)

    def plain(comm):
        comm.alltoall([np.zeros(100, dtype=np.int64)] * comm.size)
        return comm.clock.now

    def packed(comm):
        comm.alltoallw([np.zeros(100, dtype=np.int64)] * comm.size)
        return comm.clock.now

    t_plain = max(run_mpi(plain, 4, cost_model=cm).values)
    t_packed = max(run_mpi(packed, 4, cost_model=cm).values)
    assert t_packed > t_plain


def test_bcast_latency_logarithmic_not_linear():
    def time_bcast(p):
        def main(comm):
            comm.bcast(np.zeros(4), 0)
            return comm.clock.now

        # pins the default (binomial) schedule: blind to REPRO_COLL_*
        return max(run_mpi(main, p, cost_model=CM,
                           engine=CollectiveEngine(CM, env={})).values)

    t2, t16 = time_bcast(2), time_bcast(16)
    assert t16 <= 5 * t2  # binomial: 4 rounds vs 1, never 15x
