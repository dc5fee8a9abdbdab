"""The §VI extension: d-dimensional indirect all-to-all with aggregation."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Communicator, extend, recv_counts_out, send_buf, send_counts
from repro.mpi import CollectiveEngine, CostModel
from repro.plugins.grid_alltoall import GridAlltoall, grid_dims
from repro.plugins.hierarchical_alltoall import (
    HierarchicalAlltoall,
    balanced_dims,
    coords_to_rank,
    rank_to_coords,
)
from tests.conftest import runk

HComm = extend(Communicator, HierarchicalAlltoall)
BothComm = extend(Communicator, GridAlltoall, HierarchicalAlltoall)


class TestDims:
    @pytest.mark.parametrize("p", [1, 2, 4, 7, 8, 12, 16, 24, 27, 64, 100])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_product_exact(self, p, d):
        dims = balanced_dims(p, d)
        assert len(dims) == d
        assert int(np.prod(dims)) == p

    def test_power_of_two_balanced(self):
        assert balanced_dims(64, 3) == (4, 4, 4)
        assert balanced_dims(16, 4) == (2, 2, 2, 2)

    def test_prime_degenerates(self):
        assert balanced_dims(7, 2) == (1, 7)

    def test_invalid_dimension(self):
        from repro.core.errors import UsageError

        with pytest.raises(UsageError):
            balanced_dims(4, 0)

    @pytest.mark.parametrize("p,d", [(12, 2), (27, 3), (16, 4)])
    def test_coords_roundtrip(self, p, d):
        dims = balanced_dims(p, d)
        for r in range(p):
            assert coords_to_rank(rank_to_coords(r, dims), dims) == r


def _exchange(comm, d, seed):
    p, r = comm.size, comm.rank
    rng = np.random.default_rng((seed, r))
    counts = rng.integers(0, 4, size=p).tolist()
    data = np.concatenate(
        [np.full(counts[dest], r * 1000 + dest, dtype=np.int64)
         for dest in range(p)]
    ) if sum(counts) else np.empty(0, dtype=np.int64)
    direct = comm.alltoallv(send_buf(data), send_counts(counts))
    res = comm.alltoallv_hypergrid(send_buf(data), send_counts(counts),
                                   recv_counts_out(), d=d)
    hyper, rc = res
    return direct.tolist(), hyper.tolist(), rc


@pytest.mark.parametrize("p", [1, 4, 8, 12, 16])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_matches_direct_alltoallv(p, d):
    res = runk(lambda c: _exchange(c, d, 5), p, comm_class=HComm)
    for r in range(p):
        direct, hyper, rc = res.values[r]
        assert hyper == direct
        assert sum(rc) == len(direct)


def test_d1_is_direct_exchange():
    """One dimension = no indirection: a single alltoallv over everyone."""
    res = runk(lambda c: _exchange(c, 1, 9), 6, comm_class=HComm)
    for direct, hyper, _ in res.values:
        assert hyper == direct


def test_empty_exchange():
    def main(comm):
        counts = [0] * comm.size
        out = comm.alltoallv_hypergrid(
            send_buf(np.empty(0, dtype=np.int64)), send_counts(counts), d=3
        )
        return len(out)

    assert all(v == 0 for v in runk(main, 8, comm_class=HComm).values)


def test_latency_decreases_with_dimension_for_sparse_traffic():
    """More hops ⇒ fewer start-ups per hop; wins for latency-bound exchanges."""
    cm = CostModel(alpha=1e-3, beta=0.0, overhead=0.0)

    def main(comm):
        p, r = comm.size, comm.rank
        counts = [0] * p
        counts[(r + 1) % p] = 1
        data = np.array([r], dtype=np.int64)
        times = {}
        for d in (1, 2, 3):
            t0 = comm.raw.clock.now
            comm.alltoallv_hypergrid(send_buf(data), send_counts(counts), d=d)
            times[d] = comm.raw.clock.now - t0
        return times

    # every hop is a default (pairwise) alltoallv: blind to REPRO_COLL_*
    res = runk(main, 27, comm_class=HComm, cost_model=cm,
               engine=CollectiveEngine(cm, env={}))
    times = {d: max(v[d] for v in res.values) for d in (1, 2, 3)}
    # 26 start-ups vs 2·(9−1)+... vs 3·(3−1) rounds — monotone decreasing
    assert times[3] < times[2] < times[1]


def test_aggregation_combines_messages_per_hop():
    """All traffic between a rank pair in one hop travels as one message."""
    def main(comm):
        p, r = comm.size, comm.rank
        # everyone sends to every rank: without aggregation, hop 1 would carry
        # p messages per neighbor; with aggregation it's one per neighbor.
        counts = [1] * p
        data = np.arange(p, dtype=np.int64)
        before = dict(comm.raw.machine.profile[comm.raw.world_rank])
        comm.alltoallv_hypergrid(send_buf(data), send_counts(counts), d=2)
        after = comm.raw.machine.profile[comm.raw.world_rank]
        # exactly one alltoallv per hop (plus count-inference alltoalls)
        return after["alltoallv"] - before.get("alltoallv", 0)

    res = runk(main, 16, comm_class=HComm)
    assert all(v == 2 for v in res.values)  # 2 hops = 2 aggregated alltoallvs


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**31), d=st.integers(1, 3))
def test_hypergrid_property(seed, d):
    res = runk(lambda c: _exchange(c, d, seed), 8, comm_class=HComm)
    for direct, hyper, _ in res.values:
        assert hyper == direct


@pytest.mark.parametrize("p", [4, 6, 7, 12])
def test_grid_is_the_two_dimensional_hypergrid(p):
    """``alltoallv_grid`` and ``alltoallv_hypergrid(d=2)`` are one exchange:
    same values, virtual clocks, PMPI counts and trace events — all but the
    ids of the sub-communicators the hops run on."""
    assert grid_dims(p) == balanced_dims(p, 2)[::-1]

    def main(comm, method, kwargs):
        out = []
        for seed, dtype in ((1, np.int64), (2, np.float64), (3, np.int64)):
            rng = np.random.default_rng((seed, comm.rank))
            counts = rng.integers(0, 4, size=comm.size).tolist()
            data = rng.integers(0, 1000, size=sum(counts)).astype(dtype)
            buf, rcounts = getattr(comm, method)(
                send_buf(data), send_counts(counts), recv_counts_out(),
                **kwargs)
            out.append((buf.dtype.str, buf.tolist(), rcounts))
        return out

    cm = CostModel()
    grid, hyper = (
        runk(main, p, args=(method, kwargs), comm_class=BothComm, trace=True,
             cost_model=cm, engine=CollectiveEngine(cm, env={}))
        for method, kwargs in (("alltoallv_grid", {}),
                               ("alltoallv_hypergrid", {"d": 2})))
    assert grid.values == hyper.values
    assert grid.times == hyper.times
    assert grid.counts == hyper.counts
    for r in range(p):
        assert ([dataclasses.replace(e, comm=None)
                 for e in grid.trace.events_for(r)]
                == [dataclasses.replace(e, comm=None)
                    for e in hyper.trace.events_for(r)])
