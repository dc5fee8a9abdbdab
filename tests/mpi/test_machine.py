"""Machine driver, communicator management, and profiling counters."""

import time

import numpy as np
import pytest

from repro.mpi import SUM, Machine, RawUsageError, run_mpi
from tests.conftest import SMALL_P, runp


def test_run_returns_per_rank_values():
    res = runp(lambda comm: comm.rank * 2, 5)
    assert res.values == [0, 2, 4, 6, 8]
    assert len(res.times) == 5 and len(res.counts) == 5


def test_exceptions_annotated_with_rank():
    """The root cause is reported, and at once: the raising rank aborts, so
    its peers in the barrier fail instead of sleeping out the deadline."""
    def main(comm):
        if comm.rank == 2:
            raise ValueError("boom")
        comm.barrier()

    t0 = time.monotonic()
    with pytest.raises(RuntimeError, match="rank 2 raised ValueError: boom"):
        run_mpi(main, 4, deadline=2.0)
    assert time.monotonic() - t0 < 0.5


def test_zero_ranks_rejected():
    with pytest.raises(RawUsageError):
        Machine(0)


def test_args_forwarded():
    res = runp(lambda comm, a, b: (comm.rank, a + b), 2, args=(10, 5))
    assert res.values == [(0, 15), (1, 15)]


def test_profile_counts_public_calls_only():
    """A collective counts once; its internal p2p traffic is invisible."""
    def main(comm):
        comm.allgather(comm.rank)
        comm.barrier()
        return None

    res = runp(main, 4)
    for counter in res.counts:
        assert counter["allgather"] == 1
        assert counter["barrier"] == 1
        assert counter["send"] == 0 and counter["recv"] == 0
    assert res.total_calls("allgather") == 4


@pytest.mark.parametrize("p", [2, 4, 7])
def test_comm_split_subgroups(p):
    def main(comm):
        color = comm.rank % 2
        sub = comm.split(color)
        total = sub.allreduce(1, SUM)
        return color, sub.rank, total

    res = runp(main, p)
    evens = (p + 1) // 2
    odds = p // 2
    for r in range(p):
        color, sub_rank, total = res.values[r]
        assert total == (evens if color == 0 else odds)
        assert sub_rank == r // 2


def test_comm_split_undefined_color():
    def main(comm):
        sub = comm.split(None if comm.rank == 0 else 1)
        if sub is None:
            return "undefined"
        return sub.allreduce(1, SUM)

    res = runp(main, 3)
    assert res.values == ["undefined", 2, 2]


def test_comm_split_key_reorders():
    def main(comm):
        sub = comm.split(0, key=-comm.rank)  # reverse order
        return sub.rank

    res = runp(main, 4)
    assert res.values == [3, 2, 1, 0]


def test_comm_dup_isolated_traffic():
    def main(comm):
        dup = comm.dup()
        if comm.rank == 0:
            comm.send("world", 1, tag=1)
            dup.send("dup", 1, tag=1)
            return None
        payload_dup, _ = dup.recv(0, 1)
        payload_world, _ = comm.recv(0, 1)
        return payload_world, payload_dup

    assert runp(main, 2).values[1] == ("world", "dup")


def test_dist_graph_topology_and_neighbor_collectives():
    def main(comm):
        p, r = comm.size, comm.rank
        sources = ((r - 1) % p,)
        destinations = ((r + 1) % p,)
        ring = comm.dist_graph_create_adjacent(sources, destinations)
        out = ring.neighbor_alltoall([f"from{r}"])
        sendbuf = np.full(r + 1, r, dtype=np.int64)
        data = ring.neighbor_alltoallv(sendbuf, [r + 1], [(r - 1) % p + 1])
        return out, data.tolist()

    res = runp(main, 4)
    for r in range(4):
        out, data = res.values[r]
        assert out == [f"from{(r - 1) % 4}"]
        assert data == [(r - 1) % 4] * ((r - 1) % 4 + 1)


def test_neighbor_collective_requires_topology():
    def main(comm):
        comm.neighbor_alltoall([1])

    with pytest.raises(RuntimeError, match="dist-graph"):
        runp(main, 2)


@pytest.mark.parametrize("p", SMALL_P)
def test_nested_split_of_split(p):
    def main(comm):
        sub = comm.split(comm.rank % 2)
        subsub = sub.split(0)
        return subsub.allreduce(1, SUM) == sub.size

    assert all(runp(main, p).values)
