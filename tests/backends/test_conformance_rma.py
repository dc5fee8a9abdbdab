"""One-sided communication conformance: the same epochs on both backends.

Operations queue at the origin and the closing fence applies them at each
target in (origin rank, issue order), so nothing reads another rank's
memory: values, virtual clocks, PMPI counts and traces match bit for bit
across backends and schedule-fuzzer seeds, and the atomics are a function
of the program (rank 0 wins the election, tickets follow rank order).
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.mpi import MAX, RawUsageError, run_mpi, user_op
from tests.backends.conftest import canon, ps_for


def _rma_program(comm):
    p, r = comm.size, comm.rank
    # slot 0: ticket counter, 1: election, 2 … p+1: one put slot per
    # origin, p+2: everyone's maximum
    win = comm.win_create(np.zeros(p + 3, dtype=np.int64))
    win.fence()
    tickets = [win.fetch_and_op(1, target=0, offset=0) for _ in range(2)]
    vote = win.compare_and_swap(r + 1, 0, target=0, offset=1)
    win.put([10 * r + 1], target=(r + 1) % p, offset=2 + r)
    for target in range(p):
        win.accumulate([r + 1], target, p + 2, MAX)
    win.fence()
    left = win.get((r - 1) % p)
    win.put([-1], target=r, offset=0)  # completed by free: no closing fence
    win.free()
    return ([t.wait() for t in tickets], vote.wait(), left.wait(),
            win.local.copy(), comm.clock.now)


def _check(values, p):
    for r, (tickets, vote, left, local, _) in enumerate(values):
        assert tickets == [2 * r, 2 * r + 1]
        assert vote == (0 if r == 0 else 1)  # rank 0's swap goes first
        # the left rank's window after free, but for the put of -1 that its
        # owner issued in the same epoch: applied after rank 0's get only
        assert left.tolist() == ([0] if r == 0 else [-1]) + (
            values[(r - 1) % p][3].tolist()[1:])
        expected = np.zeros(p + 3, dtype=np.int64)
        expected[0] = -1
        expected[2 + (r - 1) % p] = 10 * ((r - 1) % p) + 1
        expected[p + 2] = p
        if r == 0:
            expected[1] = 1  # the leader is rank 0 (stored as rank + 1)
        assert local.tolist() == expected.tolist()


def test_every_operation_matches_across_backends(differential, backend):
    for p in ps_for(backend, minimum=2):
        res = differential(_rma_program, p, trace=True,
                           compare=("values", "times", "counts", "trace"))
        _check(res.values, p)


@pytest.mark.parametrize("seed", [0, 7, 1234])
@pytest.mark.parametrize("backend", [
    "thread", pytest.param("process", marks=pytest.mark.slow)])
def test_fuzzed_runs_are_bit_identical_to_plain_threads(backend, seed):
    got = run_mpi(_rma_program, 4, backend=backend, fuzz_seed=seed)
    ref = run_mpi(_rma_program, 4, backend="thread")
    _check(got.values, 4)
    assert canon(got.values) == canon(ref.values)
    assert got.times == ref.times
    assert got.counts == ref.counts


def _early_wait(comm):
    win = comm.win_create(np.arange(2, dtype=np.int64))
    win.fence()
    reads = (win.get(comm.rank), win.fetch_and_op(1, comm.rank, 0),
             win.compare_and_swap(5, 1, comm.rank, 1))
    refused = []
    for read in reads:
        with pytest.raises(RawUsageError, match="after the fence"):
            read.wait()
        refused.append(True)
    win.fence()
    return refused, [canon(read.wait()) for read in reads]


def test_a_read_waited_on_before_its_closing_fence_raises(backend):
    res = run_mpi(_early_wait, 2, backend=backend)
    assert res.values == [([True] * 3, [canon(np.arange(2)), 0, 1])] * 2


def _issue_before_the_target_arrives(comm):
    win = comm.win_create(np.zeros(2, dtype=np.int64))
    win.fence()
    if comm.rank == 0:
        # rank 1 is parked in recv until every operation has been issued
        win.put([7], 1, 0)
        win.accumulate([3], 1, 1)
        reads = [win.get(1), win.fetch_and_op(1, 1, 0),
                 win.compare_and_swap(9, 8, 1, 0)]
        comm.send("issued", 1)
    else:
        comm.recv(0)
        reads = []
    win.fence()
    return [canon(read.wait()) for read in reads], win.local.tolist()


def test_issuing_never_waits_for_the_target(backend):
    res = run_mpi(_issue_before_the_target_arrives, 2, backend=backend,
                  deadline=10.0)
    assert res.values[0][0] == [canon(np.array([7, 3])), 7, 8]
    assert res.values[1] == ([], [9, 3])


def _user_op_refused_at_issue(comm):
    win = comm.win_create(np.zeros(1, dtype=np.int64))
    win.fence()
    twice = user_op(lambda a, b: a + 2 * b)
    refused = []
    for issue in (lambda: win.accumulate([1], 0, 0, twice),
                  lambda: win.fetch_and_op(1, 0, 0, twice)):
        with pytest.raises(RawUsageError, match="predefined op"):
            issue()
        refused.append(True)
    # a copy of a predefined op is that op
    win.accumulate([comm.rank + 1], 0, 0, pickle.loads(pickle.dumps(MAX)))
    win.fence()
    win.free()
    return refused, win.local.tolist()


def test_a_user_op_is_refused_at_issue(backend):
    """A target applies the op it is sent, and MPI allows only predefined
    ops there: a ``user_op`` fails where it is issued, on either backend,
    and the epoch goes on."""
    res = run_mpi(_user_op_refused_at_issue, 2, backend=backend,
                  deadline=10.0)
    assert res.values == [([True, True], [2]), ([True, True], [0])]
