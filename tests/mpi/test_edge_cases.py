"""Edge cases and stress for the raw runtime."""

import time

import numpy as np
import pytest

from repro.mpi import ANY_SOURCE, ANY_TAG, SUM, CostModel, run_mpi
from tests.conftest import runp


class TestAlltoallw:
    def test_roundtrip_blocks(self):
        def main(comm):
            blocks = [np.full(2, comm.rank * 10 + d, dtype=np.int64)
                      for d in range(comm.size)]
            out = comm.alltoallw(blocks)
            return [np.asarray(b).tolist() for b in out]

        res = runp(main, 3)
        for r in range(3):
            assert res.values[r] == [[s * 10 + r] * 2 for s in range(3)]

    def test_wrong_block_count(self):
        def main(comm):
            comm.alltoallw([np.zeros(1)])

        with pytest.raises(RuntimeError, match="exactly"):
            runp(main, 3)

    def test_heterogeneous_block_types(self):
        def main(comm):
            blocks = [{"from": comm.rank} for _ in range(comm.size)]
            out = comm.alltoallw(blocks)
            return [b["from"] for b in out]

        res = runp(main, 2)
        assert res.values[0] == [0, 1]


class TestTruncation:
    def test_allgatherv_truncates_on_oversized_block(self):
        def main(comm):
            block = np.zeros(5, dtype=np.int64)
            counts = [2] * comm.size  # lie: blocks are larger
            comm.allgatherv(block, counts)

        with pytest.raises(RuntimeError, match="Truncation|allgatherv"):
            runp(main, 2)

    def test_alltoallv_truncates(self):
        def main(comm):
            sendbuf = np.zeros(comm.size * 3, dtype=np.int64)
            comm.alltoallv(sendbuf, [3] * comm.size, [1] * comm.size)

        with pytest.raises(RuntimeError, match="Truncation|alltoallv"):
            runp(main, 2)

    def test_gatherv_truncates(self):
        def main(comm):
            counts = [1] * comm.size if comm.rank == 0 else None
            comm.gatherv(np.zeros(4, dtype=np.int64), counts, 0)

        with pytest.raises(RuntimeError, match="Truncation|gatherv"):
            runp(main, 2)


class TestScattervErrors:
    """Root raises; the other rank, parked in the scatter's receive, is woken
    by the abort and fails at once instead of sitting out its deadline."""

    def test_counts_exceed_buffer(self):
        def main(comm):
            if comm.rank == 0:
                comm.scatterv(np.arange(3), [5] * comm.size, 0)
            else:
                comm.scatterv(None, None, 0)

        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="exceed"):
            runp(main, 2, deadline=2.0)
        assert time.monotonic() - t0 < 0.5

    def test_missing_counts_at_root(self):
        def main(comm):
            comm.scatterv(np.arange(4) if comm.rank == 0 else None, None, 0)

        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="sendcounts"):
            runp(main, 2, deadline=2.0)
        assert time.monotonic() - t0 < 0.5


@pytest.mark.slow
class TestStress:
    def test_many_interleaved_messages(self):
        """Heavy all-pairs p2p traffic with per-pair tags stays consistent."""
        def main(comm):
            p, r = comm.size, comm.rank
            for dest in range(p):
                for i in range(5):
                    comm.send((r, dest, i), dest, tag=r)
            seen = {}
            for _ in range(5 * p):
                payload, status = comm.recv(ANY_SOURCE, ANY_TAG)
                src, dest, i = payload
                assert dest == r and status.tag == src
                seen.setdefault(src, []).append(i)
            return all(v == list(range(5)) for v in seen.values())

        assert all(runp(main, 6).values)

    def test_repeated_collectives_many_rounds(self):
        def main(comm):
            total = 0
            for i in range(50):
                total += comm.allreduce(i, SUM)
            return total

        expected = sum(i * 4 for i in range(50))
        assert all(v == expected for v in runp(main, 4).values)

    def test_collectives_on_many_subcommunicators(self):
        def main(comm):
            results = []
            for color_mod in (2, 3):
                sub = comm.split(comm.rank % color_mod)
                results.append(sub.allreduce(1, SUM))
            return results

        res = runp(main, 6)
        assert res.values[0] == [3, 2]

    def test_large_payload_bandwidth_term(self):
        cm = CostModel(alpha=0.0, beta=1e-9, overhead=0.0)

        def main(comm):
            if comm.rank == 0:
                comm.send(np.zeros(10**6, dtype=np.int64), 1)  # 8 MB
                return None
            comm.recv(0)
            return comm.clock.now

        res = run_mpi(main, 2, cost_model=cm)
        assert res.values[1] == pytest.approx(8e6 * 1e-9, rel=1e-6)


class TestVirtualTimeMonotonicity:
    def test_clock_never_regresses(self):
        def main(comm):
            stamps = []
            for _ in range(10):
                comm.barrier()
                stamps.append(comm.clock.now)
                comm.allreduce(1, SUM)
                stamps.append(comm.clock.now)
            return all(b >= a for a, b in zip(stamps, stamps[1:]))

        assert all(runp(main, 4).values)
