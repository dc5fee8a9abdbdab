"""Additional comparator-binding coverage: edge cases."""

import numpy as np
import pytest

from repro.bindings import boost_mpi, rwth_mpi
from repro.mpi import expect_calls
from tests.conftest import runp


class TestBoostExtra:
    def test_unmappable_op_rejected(self):
        def main(raw):
            comm = boost_mpi.communicator(raw)
            boost_mpi.all_reduce(comm, 1, "not callable")

        with pytest.raises(RuntimeError, match="cannot map"):
            runp(main, 1)


class TestRwthExtra:
    def test_explicit_recv_counts_skip_exchange(self):
        def main(raw):
            comm = rwth_mpi.Communicator(raw)
            p = raw.size
            with expect_calls(raw, alltoallv=1):
                out = comm.all_to_all_varying(
                    np.full(p, raw.rank, dtype=np.int64), [1] * p, [1] * p
                )
            return out.tolist()

        assert runp(main, 3).values[0] == [0, 1, 2]
