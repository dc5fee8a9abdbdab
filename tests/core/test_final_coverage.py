"""Final coverage round: send displacements, machine internals, misc gaps."""

import numpy as np
import pytest

from repro.core import (
    recv_counts,
    recv_displs,
    send_buf,
    send_counts,
    send_displs,
)
from repro.mpi import SUM, Machine, RawUsageError, run_mpi
from repro.mpi.context import RawComm
from tests.conftest import runk, runp


class TestSendDispls:
    def test_alltoallv_with_explicit_send_displs(self):
        """Blocks may live anywhere in the send buffer (C-style displs)."""
        def main(comm):
            p = comm.size
            # blocks stored in reverse order inside the buffer
            buf = np.empty(p, dtype=np.int64)
            displs = [p - 1 - d for d in range(p)]
            for d in range(p):
                buf[displs[d]] = comm.rank * 10 + d
            out = comm.alltoallv(send_buf(buf), send_counts([1] * p),
                                 send_displs(displs))
            return np.asarray(out).tolist()

        res = runk(main, 4)
        for r in range(4):
            assert res.values[r] == [s * 10 + r for s in range(4)]

    def test_scatterv_with_send_displs(self):
        from repro.core import root

        def main(comm):
            p = comm.size
            if comm.rank == 0:
                buf = np.arange(100, 100 + 2 * p)[::-1].copy()
                displs = [2 * (p - 1 - d) for d in range(p)]
                out = comm.scatterv(send_buf(buf), send_counts([2] * p),
                                    send_displs(displs), root(0))
            else:
                out = comm.scatterv(root(0))
            return np.asarray(out).tolist()

        res = runk(main, 3)
        # rank d receives the block at displacement 2*(p-1-d) of the
        # reversed buffer == [100+2d+1, 100+2d] ... verify deterministically
        flat = np.arange(100, 106)[::-1]
        for d in range(3):
            expected = flat[2 * (2 - d): 2 * (2 - d) + 2].tolist()
            assert res.values[d] == expected

    def test_recv_displs_alltoallv_gaps(self):
        def main(comm):
            p = comm.size
            out = comm.alltoallv(
                send_buf(np.full(p, comm.rank + 1, dtype=np.int64)),
                send_counts([1] * p), recv_counts([1] * p),
                recv_displs([3 * i for i in range(p)]),
            )
            return np.asarray(out).tolist()

        res = runk(main, 2)
        assert res.values[0] == [1, 0, 0, 2]


class TestMachineInternals:
    def test_collective_tag_code_bounds(self):
        m = Machine(1)
        raw = RawComm(m, m.world, 0)
        with pytest.raises(ValueError):
            raw._next_coll_tag(64)
        first, second = raw._next_coll_tag(2), raw._next_coll_tag(2)
        assert first != second
        assert raw._next_coll_tag(0) < 0

    def test_comm_recreation_with_other_members_rejected(self):
        m = Machine(4)
        m.get_or_create_comm("x", [0, 1])
        with pytest.raises(RawUsageError):
            m.get_or_create_comm("x", [0, 2])

    def test_get_or_create_idempotent(self):
        m = Machine(3)
        a = m.get_or_create_comm("y", [0, 1, 2])
        b = m.get_or_create_comm("y", [0, 1, 2])
        assert a is b

    def test_run_result_helpers(self):
        res = runp(lambda comm: comm.allreduce(1, SUM), 3)
        assert res.max_time >= 0
        assert res.total_calls("allreduce") == 3
        assert res.failed == frozenset()

    def test_custom_deadline_propagates(self):
        def main(comm):
            if comm.rank == 0:
                comm.recv(1)

        import time

        t0 = time.time()
        with pytest.raises(RuntimeError):
            run_mpi(main, 2, deadline=0.2)
        assert time.time() - t0 < 10


class TestMiscGaps:
    def test_probe_wrapped_any_source(self):
        from repro.core import destination

        def main(comm):
            if comm.rank == 1:
                comm.send(send_buf([1]), destination(0))
                return None
            status = comm.probe()
            comm.recv()  # drain the probed message (probe does not consume)
            return status.source

        assert runk(main, 2).values[0] == 1

    def test_flatten_numpy_buckets(self):
        from repro.core import with_flattened

        flat = with_flattened({1: np.array([5, 6])}, 3)
        assert flat.counts == [0, 2, 0]
        assert flat.data.tolist() == [5, 6]

    def test_loc_counter_on_comprehension(self):
        from repro.loc import logical_loc

        def fn(xs):
            return [
                x * 2
                for x in xs
                if x > 0
            ]

        # every source line the statement spans counts, including the
        # closing bracket (clang-format-style density)
        assert logical_loc(fn) == 5
