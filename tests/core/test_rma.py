"""One-sided communication: windows, fence epochs and their results.

Operations queue at the origin; the closing fence applies them at each
target in (origin rank, issue order), and a read's value is defined only
after that fence.
"""

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
        got = win.get(comm.rank, 0, 2)
        win.fence()
        return win.local[:2].tolist(), got.wait().tolist()

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
        win.fence()
        win.local[0] = 99
        return snapshot.wait().tolist()

    assert runk(main, 2).values[0] == [5, 6]


def test_put_takes_its_data_at_issue():
    """The origin may reuse its buffer before the fence applies the put."""
    def main(comm):
        win = comm.win_create(np.zeros(2, dtype=np.int64))
        buf = np.array([3, 4], dtype=np.int64)
        win.fence()
        win.put(buf, target=comm.rank)
        buf[:] = -1
        win.fence()
        return win.local.tolist()

    assert runk(main, 2).values == [[3, 4], [3, 4]]


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
    """fetch_and_op implements a distributed ticket counter whose tickets
    follow (origin rank, issue order): rank r draws 3r, 3r+1 and 3r+2."""
    def main(comm):
        win = comm.win_create(np.zeros(1, dtype=np.int64))
        win.fence()
        tickets = [win.fetch_and_op(1, target=0, offset=0) for _ in range(3)]
        win.fence()
        return [t.wait() for t in tickets]

    res = runk(main, 4)
    assert res.values == [[3 * r, 3 * r + 1, 3 * r + 2] for r in range(4)]


def test_compare_and_swap_single_winner():
    def main(comm):
        win = comm.win_create(np.full(1, -1, dtype=np.int64))
        win.fence()
        old = win.compare_and_swap(comm.rank, compare=-1, target=0, offset=0)
        win.fence()
        return old.wait(), int(win.local[0]) if comm.rank == 0 else None

    res = runk(main, 6)
    # rank 0's swap is applied first, so rank 0 is the one winner
    assert [old for old, _ in res.values] == [-1] + [0] * 5
    assert res.values[0][1] == 0


def test_bounds_checked():
    def main(comm):
        win = comm.win_create(np.zeros(2, dtype=np.int64))
        win.fence()
        win.put([1, 2, 3], target=comm.rank)

    with pytest.raises(RuntimeError, match="exceeds"):
        runk(main, 1)


def test_one_sided_costs_origin_only():
    """Issuing RMA costs the origin one overhead per operation and the
    target nothing; the transfer is paid at the closing fence."""
    cm = CostModel(alpha=1e-3, beta=0.0, overhead=1e-4)

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
    assert res.values[0] == pytest.approx(5e-4)  # origin paid 5 overheads
    assert res.values[1] == 0.0                   # target paid nothing


def test_window_counted_in_pmpi():
    def main(comm):
        # the exchanges inside win_create and the fences are not counted
        with expect_calls(comm.raw, win_create=1, win_fence=2, win_put=1,
                          win_get=1, win_free=1):
            win = comm.win_create(np.zeros(2, dtype=np.int64))
            win.fence()
            win.put([1], target=comm.rank)
            win.get(comm.rank)
            win.fence()
            win.free()
        return True

    assert all(runk(main, 2).values)


def test_non_1d_window_rejected():
    def main(comm):
        comm.win_create(np.zeros((2, 2)))

    with pytest.raises(RuntimeError, match="one-dimensional"):
        runk(main, 1)
