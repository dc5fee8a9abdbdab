"""Edge cases across the shipped plugins."""

import numpy as np
import pytest

from repro.core import Communicator, extend, send_buf, send_counts
from repro.mpi import SUM
from repro.plugins import (
    DistributedSorter,
    GridAlltoall,
    ReproducibleReduce,
    SparseAlltoall,
)
from tests.conftest import runk

GridComm = extend(Communicator, GridAlltoall)
SparseComm = extend(Communicator, SparseAlltoall)
SortComm = extend(Communicator, DistributedSorter)
RRComm = extend(Communicator, ReproducibleReduce)


class TestGridEdge:
    def test_prime_p_degenerates_to_single_column(self):
        """p=7 factors as 7×1: phase 1 is the whole exchange, phase 2 local."""
        def main(comm):
            counts = [1] * comm.size
            data = np.arange(comm.size, dtype=np.int64) + 10 * comm.rank
            direct = comm.alltoallv(send_buf(data), send_counts(counts))
            grid = comm.alltoallv_grid(send_buf(data), send_counts(counts))
            return direct.tolist(), grid.tolist()

        for direct, grid in runk(main, 7, comm_class=GridComm).values:
            assert grid == direct

    def test_float_payloads(self):
        def main(comm):
            counts = [2] * comm.size
            data = np.repeat(np.float64(comm.rank) + 0.5, 2 * comm.size)
            out = comm.alltoallv_grid(send_buf(data), send_counts(counts))
            return np.asarray(out).tolist()

        res = runk(main, 4, comm_class=GridComm)
        assert res.values[0] == [0.5, 0.5, 1.5, 1.5, 2.5, 2.5, 3.5, 3.5]

    def test_all_empty(self):
        def main(comm):
            counts = [0] * comm.size
            out = comm.alltoallv_grid(
                send_buf(np.empty(0, dtype=np.int64)), send_counts(counts)
            )
            return len(out)

        assert all(v == 0 for v in runk(main, 8, comm_class=GridComm).values)

    def test_grid_cache_reused_across_calls(self):
        """Row/column communicators are built once, not per call."""
        def main(comm):
            counts = [1] * comm.size
            data = np.arange(comm.size, dtype=np.int64)
            before = comm.raw.machine.profile[comm.raw.world_rank]["comm_split"]
            for _ in range(5):
                comm.alltoallv_grid(send_buf(data), send_counts(counts))
            after = comm.raw.machine.profile[comm.raw.world_rank]["comm_split"]
            return after - before

        res = runk(main, 4, comm_class=GridComm)
        assert all(v == 2 for v in res.values)  # one row + one column split


    def test_usage_errors_name_alltoallv_grid(self):
        """The plan is hypergrid's; the operation a user called is not."""
        def main(comm):
            comm.alltoallv_grid(send_buf(np.arange(comm.size)))

        with pytest.raises(RuntimeError, match=r"alltoallv_grid.*send_counts"):
            runk(main, 2, comm_class=GridComm)


class TestSparseEdge:
    def test_list_payloads(self):
        def main(comm):
            p, r = comm.size, comm.rank
            got = comm.alltoallv_sparse({(r + 1) % p: [("obj", r)]})
            return got[(r - 1) % p]

        res = runk(main, 3, comm_class=SparseComm)
        assert res.values[0] == [("obj", 2)]

    def test_self_message(self):
        def main(comm):
            got = comm.alltoallv_sparse({comm.rank: np.array([42])})
            return got[comm.rank].tolist()

        assert all(v == [42] for v in runk(main, 4, comm_class=SparseComm).values)

    def test_all_to_one_hotspot(self):
        def main(comm):
            msgs = {0: np.array([comm.rank])} if comm.rank else {}
            got = comm.alltoallv_sparse(msgs)
            if comm.rank == 0:
                return sorted(int(v[0]) for v in got.values())
            return sorted(got)

        res = runk(main, 8, comm_class=SparseComm)
        assert res.values[0] == list(range(1, 8))

    def test_out_of_range_destination(self):
        def main(comm):
            comm.alltoallv_sparse({99: np.array([1])})

        with pytest.raises(RuntimeError, match="out of range"):
            runk(main, 2, comm_class=SparseComm)


class TestSorterEdge:
    def test_floats_with_negatives(self):
        def main(comm):
            rng = np.random.default_rng(comm.rank)
            return comm.sort(rng.normal(size=300))

        blocks = runk(main, 4, comm_class=SortComm).values
        merged = np.concatenate(blocks)
        assert (np.diff(merged) >= 0).all()

    def test_all_equal_elements(self):
        def main(comm):
            return comm.sort(np.full(100, 7, dtype=np.int64))

        blocks = runk(main, 4, comm_class=SortComm).values
        assert sum(len(b) for b in blocks) == 400
        assert all((b == 7).all() for b in blocks)

    def test_single_rank(self):
        def main(comm):
            return comm.sort(np.array([3, 1, 2]))

        assert runk(main, 1, comm_class=SortComm).values[0].tolist() == [1, 2, 3]


class TestReproducibleReduceEdge:
    def test_single_element_total(self):
        def main(comm):
            vals = np.array([1.5]) if comm.rank == 0 else np.empty(0)
            return comm.allreduce_reproducible(vals, SUM)

        assert all(v == 1.5 for v in runk(main, 3, comm_class=RRComm).values)

    def test_extreme_imbalance(self):
        data = np.linspace(0.0, 1.0, 57)

        def main(comm):
            if comm.rank == comm.size - 1:
                vals = data
            else:
                vals = np.empty(0)
            return comm.allreduce_reproducible(vals, SUM)

        res = runk(main, 4, comm_class=RRComm)
        balanced = runk(
            lambda c: c.allreduce_reproducible(
                data[c.rank * 14: (c.rank + 1) * 14 if c.rank < 3 else 57], SUM
            ),
            4, comm_class=RRComm,
        )
        assert float(res.values[0]) == float(balanced.values[0])
