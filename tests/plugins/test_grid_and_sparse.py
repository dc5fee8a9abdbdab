"""Grid and sparse (NBX) all-to-all plugins (§V-A)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Communicator, extend, recv_counts_out, send_buf, send_counts
from repro.plugins import GridAlltoall, SparseAlltoall, grid_dims
from tests.conftest import runk

GridComm = extend(Communicator, GridAlltoall)
SparseComm = extend(Communicator, SparseAlltoall)
BothComm = extend(Communicator, GridAlltoall, SparseAlltoall)


class TestGridDims:
    @pytest.mark.parametrize("p,expected", [
        (1, (1, 1)), (4, (2, 2)), (6, (3, 2)), (8, (4, 2)), (12, (4, 3)),
        (16, (4, 4)), (7, (7, 1)), (64, (8, 8)),
    ])
    def test_exact_factorization(self, p, expected):
        nrows, ncols = grid_dims(p)
        assert (nrows, ncols) == expected
        assert nrows * ncols == p
        assert ncols <= nrows


@pytest.mark.parametrize("p", [1, 2, 4, 6, 8, 9, 12])
def test_grid_matches_direct_alltoallv(p):
    def main(comm):
        rng = np.random.default_rng(comm.rank)
        counts = rng.integers(0, 4, size=comm.size).tolist()
        data = np.concatenate(
            [np.full(counts[d], comm.rank * 1000 + d, dtype=np.int64)
             for d in range(comm.size)]
        ) if sum(counts) else np.empty(0, dtype=np.int64)
        direct = comm.alltoallv(send_buf(data), send_counts(counts))
        grid = comm.alltoallv_grid(send_buf(data), send_counts(counts))
        return direct.tolist(), grid.tolist()

    for direct, grid in runk(main, p, comm_class=GridComm).values:
        assert grid == direct


def test_grid_recv_counts_out():
    def main(comm):
        counts = [comm.rank + 1] * comm.size
        data = np.repeat(np.arange(comm.size), comm.rank + 1) \
            + 100 * comm.rank
        buf, rcounts = comm.alltoallv_grid(
            send_buf(data.astype(np.int64)), send_counts(counts),
            recv_counts_out(),
        )
        return rcounts

    res = runk(main, 4, comm_class=GridComm)
    assert res.values[0] == [1, 2, 3, 4]


def test_grid_latency_scales_with_sqrt_p():
    """Grid beats direct alltoallv on many-zero-block exchanges at scale."""
    from repro.mpi import CollectiveEngine, CostModel

    cm = CostModel(alpha=1e-3, beta=0.0, overhead=0.0)

    def main(comm):
        counts = [0] * comm.size
        counts[(comm.rank + 1) % comm.size] = 1
        data = np.array([comm.rank], dtype=np.int64)
        t0 = comm.raw.clock.now
        comm.alltoallv(send_buf(data), send_counts(counts))
        t1 = comm.raw.clock.now
        comm.alltoallv_grid(send_buf(data), send_counts(counts))
        t2 = comm.raw.clock.now
        return t1 - t0, t2 - t1

    # "direct" is the default (pairwise) alltoallv: blind to REPRO_COLL_*
    res = runk(main, 16, comm_class=GridComm, cost_model=cm,
               engine=CollectiveEngine(cm, env={}))
    direct, grid = map(max, zip(*res.values))
    assert grid < direct  # 2·(√p−1) rounds beat (p−1) rounds at p=16


@pytest.mark.parametrize("p", [1, 3, 4, 8])
def test_sparse_roundtrip(p):
    def main(comm):
        msgs = {}
        if comm.size > 1:
            msgs[(comm.rank + 1) % comm.size] = np.array([comm.rank, 7])
        got = comm.alltoallv_sparse(msgs)
        return {src: v.tolist() for src, v in got.items()}

    res = runk(main, p, comm_class=SparseComm)
    for r in range(p):
        if p == 1:
            assert res.values[r] == {}
        else:
            assert res.values[r] == {(r - 1) % p: [(r - 1) % p, 7]}


def test_sparse_empty_exchange():
    def main(comm):
        return comm.alltoallv_sparse({})

    res = runk(main, 4, comm_class=SparseComm)
    assert all(v == {} for v in res.values)


def test_sparse_no_counts_array_needed():
    """NBX never materializes Θ(p) state — receivers learn sources lazily."""
    def main(comm):
        msgs = {0: np.array([comm.rank])} if comm.rank != 0 else {}
        got = comm.alltoallv_sparse(msgs)
        if comm.rank == 0:
            return sorted((src, v.tolist()) for src, v in got.items())
        return got

    res = runk(main, 6, comm_class=SparseComm)
    assert res.values[0] == [(r, [r]) for r in range(1, 6)]
    assert all(v == {} for v in res.values[1:])


def test_sparse_consecutive_rounds_do_not_cross_talk():
    def main(comm):
        p = comm.size
        first = comm.alltoallv_sparse({(comm.rank + 1) % p: np.array([1])})
        second = comm.alltoallv_sparse({(comm.rank + 1) % p: np.array([2])})
        return (list(first.values())[0].tolist(),
                list(second.values())[0].tolist())

    res = runk(main, 4, comm_class=SparseComm)
    assert all(v == ([1], [2]) for v in res.values)


@settings(max_examples=15, deadline=None)
@given(
    p=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_sparse_matches_alltoallv_property(p, seed):
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 3, size=(p, p))
    np.fill_diagonal(counts, 0)

    def main(comm):
        r = comm.rank
        msgs = {
            d: np.full(counts[r][d], r * 10 + d, dtype=np.int64)
            for d in range(p) if counts[r][d]
        }
        got = comm.alltoallv_sparse(msgs)
        return {src: sorted(v.tolist()) for src, v in got.items()}

    res = runk(main, p, comm_class=SparseComm)
    for r in range(p):
        expected = {
            s: [s * 10 + r] * counts[s][r]
            for s in range(p) if counts[s][r]
        }
        assert res.values[r] == expected


def test_grid_and_sparse_compose_on_one_communicator():
    def main(comm):
        counts = [1] * comm.size
        data = np.arange(comm.size, dtype=np.int64)
        grid = comm.alltoallv_grid(send_buf(data), send_counts(counts))
        sparse = comm.alltoallv_sparse({comm.rank: np.array([9])})
        return grid.tolist(), sparse[comm.rank].tolist()

    res = runk(main, 4, comm_class=BothComm)
    assert res.values[0][1] == [9]
