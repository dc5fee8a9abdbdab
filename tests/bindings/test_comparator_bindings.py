"""Comparator binding emulations: API behaviour and characteristic quirks."""

import operator

import numpy as np
import pytest

from repro.bindings import boost_mpi, mpl, rwth_mpi
from repro.mpi import CostModel, expect_calls, run_mpi
from tests.conftest import runp


# ---------------------------------------------------------------------------
# Boost.MPI
# ---------------------------------------------------------------------------

class TestBoost:
    def test_functor_mapping_like_std_plus(self):
        def main(raw):
            comm = boost_mpi.communicator(raw)
            return boost_mpi.all_reduce(comm, raw.rank + 1, operator.add)

        assert runp(main, 4).values[0] == 10

    def test_lambda_reduction(self):
        def main(raw):
            comm = boost_mpi.communicator(raw)
            return boost_mpi.all_reduce(comm, raw.rank + 1, lambda a, b: a * b)

        assert runp(main, 3).values[0] == 6

    def test_no_alltoallv_binding(self):
        """Boost.MPI never bound ``MPI_Alltoallv`` (§II): nor does this."""
        assert not any("alltoallv" in name.replace("_", "").lower()
                       for name in dir(boost_mpi))

    def test_implicit_serialization_charges_hidden_cost(self):
        """The Boost pitfall: objects serialize silently — and pay for it."""
        cm = CostModel(alpha=0.0, beta=0.0, overhead=0.0, ser_beta=1e-6)

        def main(raw):
            comm = boost_mpi.communicator(raw)
            got = boost_mpi.all_to_all(comm, [{"blob": "x" * 50_000}] * 2)
            return raw.clock.compute_seconds, got[1 - raw.rank]

        res = run_mpi(main, 2, cost_model=cm)
        # hidden serialization cost: two blobs pickled, two unpickled
        assert res.values[0][0] > 0.1
        assert res.values[0][1] == {"blob": "x" * 50_000}

    def test_arrays_skip_serialization(self):
        cm = CostModel(alpha=0.0, beta=0.0, overhead=0.0, ser_beta=1e-6)

        def main(raw):
            comm = boost_mpi.communicator(raw)
            got = boost_mpi.all_to_all(comm, [np.zeros(50_000)] * 2)
            return raw.clock.compute_seconds, len(got[1 - raw.rank])

        res = run_mpi(main, 2, cost_model=cm)
        assert res.values[0] == (0.0, 50_000)

    def test_errors_become_boost_exception(self):
        def main(raw):
            comm = boost_mpi.communicator(raw)
            try:
                boost_mpi.all_gatherv(comm, np.arange(3), [2, 1])
            except boost_mpi.BoostMpiException:
                return "caught"

        assert runp(main, 1).values[0] == "caught"

    def test_all_to_all_of_vectors(self):
        def main(raw):
            comm = boost_mpi.communicator(raw)
            out = boost_mpi.all_to_all(comm, [[raw.rank, d] for d in range(raw.size)])
            return out

        res = runp(main, 3)
        assert res.values[1] == [[0, 1], [1, 1], [2, 1]]


# ---------------------------------------------------------------------------
# MPL
# ---------------------------------------------------------------------------

def _contiguous(counts):
    return mpl.layouts([mpl.contiguous_layout(c) for c in counts])


class TestMpl:
    def test_layouts_extents(self):
        assert mpl.contiguous_layout(5).extent() == 5
        ls = mpl.layouts([mpl.contiguous_layout(c) for c in (1, 0, 3)])
        assert [ls[i].extent() for i in range(3)] == [1, 0, 3]

    def test_allgatherv_uses_alltoallw_internally(self):
        """The documented MPL behaviour Ghosh et al. measured (§II)."""
        def main(raw):
            comm = mpl.communicator(raw)
            v = np.arange(raw.rank + 1, dtype=np.int64)
            counts = [i + 1 for i in range(raw.size)]
            recvls = _contiguous(counts)
            with expect_calls(raw, alltoallw=1):
                out = comm.allgatherv(v, mpl.contiguous_layout(len(v)), recvls)
            return out.tolist()

        res = runp(main, 3)
        assert res.values[0] == [0, 0, 1, 0, 1, 2]

    def test_native_handle_not_exposed(self):
        def main(raw):
            comm = mpl.communicator(raw)
            return hasattr(comm, "raw")

        assert runp(main, 1).values[0] is False

    def test_is_slower_than_direct_alltoallv(self):
        cm = CostModel()

        def main(raw):
            comm = mpl.communicator(raw)
            p = raw.size
            data = np.zeros(100 * p, dtype=np.int64)
            counts = [100] * p
            t0 = raw.clock.now
            raw.alltoallv(data, counts, counts)
            t_direct = raw.clock.now - t0
            sendls = recvls = _contiguous(counts)
            t0 = raw.clock.now
            comm.alltoallv(data, sendls, recvls)
            t_mpl = raw.clock.now - t0
            return t_mpl > t_direct

        assert all(run_mpi(main, 4, cost_model=cm).values)


# ---------------------------------------------------------------------------
# RWTH-MPI
# ---------------------------------------------------------------------------

class TestRwth:
    def test_all_gather_varying_with_counts(self):
        def main(raw):
            comm = rwth_mpi.Communicator(raw)
            counts = comm.all_gather(raw.rank + 1)
            v = np.full(raw.rank + 1, raw.rank, dtype=np.int64)
            return comm.all_gather_varying(v, counts).tolist()

        res = runp(main, 3)
        assert res.values[0] == [0, 1, 1, 2, 2, 2]

    def test_count_inference_needs_internal_communication(self):
        def main(raw):
            comm = rwth_mpi.Communicator(raw)
            v = np.full(2, raw.rank, dtype=np.int64)
            with expect_calls(raw, allgather=1, allgatherv=1):
                out = comm.all_gather_varying(v)
            return out.tolist()

        res = runp(main, 2)
        assert res.values[0] == [0, 0, 1, 1]

    def test_count_inference_requires_resizing(self):
        def main(raw):
            comm = rwth_mpi.Communicator(raw)
            try:
                comm.all_gather_varying(np.arange(2), resize=False)
            except ValueError:
                return "rejected"

        assert runp(main, 2).values[0] == "rejected"

    def test_all_to_all_varying_infers_recv_counts(self):
        def main(raw):
            comm = rwth_mpi.Communicator(raw)
            p = raw.size
            with expect_calls(raw, alltoall=1, alltoallv=1):
                out = comm.all_to_all_varying(
                    np.full(p, raw.rank, dtype=np.int64), [1] * p
                )
            return out.tolist()

        res = runp(main, 4)
        assert res.values[2] == [0, 1, 2, 3]

    def test_native_handle_exposed(self):
        def main(raw):
            comm = rwth_mpi.Communicator(raw)
            return comm.raw is raw

        assert runp(main, 1).values[0] is True
