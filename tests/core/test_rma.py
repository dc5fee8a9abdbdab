"""One-sided communication: windows, epochs and atomics."""

import numpy as np
import pytest

from repro.mpi import MAX, SUM, CostModel, expect_calls
from tests.conftest import runk


def test_put_get_roundtrip():
    def main(comm):
        win = comm.win_create(np.zeros(4, dtype=np.int64))
        with win.epoch():
            win.put([comm.rank * 10 + 1, comm.rank * 10 + 2],
                    target=(comm.rank + 1) % comm.size)
        left = (comm.rank - 1) % comm.size
        return win.local[:2].tolist(), win.get(comm.rank, 0, 2).tolist()

    res = runk(main, 4)
    for r in range(4):
        left = (r - 1) % 4
        assert res.values[r][0] == [left * 10 + 1, left * 10 + 2]
        assert res.values[r][1] == res.values[r][0]


def test_get_returns_copy():
    def main(comm):
        win = comm.win_create(np.array([5, 6], dtype=np.int64))
        win.fence()
        snapshot = win.get(comm.rank)
        win.local[0] = 99
        return snapshot.tolist()

    assert runk(main, 2).values[0] == [5, 6]


def test_accumulate_is_atomic_under_contention():
    """All ranks concurrently accumulate into rank 0; no update is lost."""
    def main(comm):
        win = comm.win_create(np.zeros(1, dtype=np.int64))
        win.fence()
        for _ in range(50):
            win.accumulate([1], target=0)
        win.fence()
        return int(win.local[0])

    res = runk(main, 8)
    assert res.values[0] == 8 * 50


def test_accumulate_with_max():
    def main(comm):
        win = comm.win_create(np.zeros(1, dtype=np.int64))
        win.fence()
        win.accumulate([comm.rank + 1], target=0, op=MAX)
        win.fence()
        return int(win.local[0])

    assert runk(main, 5).values[0] == 5


def test_fetch_and_op_unique_tickets():
    """fetch_and_op implements a distributed ticket counter."""
    def main(comm):
        win = comm.win_create(np.zeros(1, dtype=np.int64))
        win.fence()
        tickets = [win.fetch_and_op(1, target=0, offset=0) for _ in range(3)]
        win.fence()
        return tickets

    res = runk(main, 4)
    all_tickets = [t for v in res.values for t in v]
    assert sorted(all_tickets) == list(range(12))


def test_compare_and_swap_single_winner():
    def main(comm):
        win = comm.win_create(np.full(1, -1, dtype=np.int64))
        win.fence()
        old = win.compare_and_swap(comm.rank, compare=-1, target=0, offset=0)
        win.fence()
        return old, int(win.local[0]) if comm.rank == 0 else None

    res = runk(main, 6)
    winners = [r for r, (old, _) in enumerate(res.values) if old == -1]
    assert len(winners) == 1
    assert res.values[0][1] == winners[0]


def test_bounds_checked():
    def main(comm):
        win = comm.win_create(np.zeros(2, dtype=np.int64))
        win.fence()
        win.put([1, 2, 3], target=comm.rank)

    with pytest.raises(RuntimeError, match="exceeds"):
        runk(main, 1)


def test_one_sided_costs_origin_only():
    """RMA must not advance the target's clock (no target CPU involvement)."""
    cm = CostModel(alpha=1e-3, beta=0.0, overhead=0.0)

    def main(comm):
        win = comm.win_create(np.zeros(8, dtype=np.int64))
        win.fence()
        t_after_fence = comm.raw.clock.now
        if comm.rank == 0:
            for _ in range(5):
                win.put(np.arange(8), target=1)
        origin_delta = comm.raw.clock.now - t_after_fence
        return origin_delta

    res = runk(main, 2, cost_model=cm)
    assert res.values[0] >= 5e-3       # origin paid 5 transfers
    assert res.values[1] == 0.0        # target paid nothing


def test_window_counted_in_pmpi():
    def main(comm):
        with expect_calls(comm.raw, win_create=1, win_fence=2, win_put=1,
                          win_get=1, barrier=1):
            win = comm.win_create(np.zeros(2, dtype=np.int64))
            win.fence()
            win.put([1], target=comm.rank)
            win.get(comm.rank)
            win.fence()
        return True

    assert all(runk(main, 2).values)


def test_non_1d_window_rejected():
    def main(comm):
        comm.win_create(np.zeros((2, 2)))

    with pytest.raises(RuntimeError, match="one-dimensional"):
        runk(main, 1)
