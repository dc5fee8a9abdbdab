"""Process-backend specifics: real OS processes, selection, marshalling.

The acceptance test of the backend: p=4 ranks execute in four distinct OS
processes (distinct PIDs, none of them the parent) while producing results
bit-identical to the thread backend.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.mpi import (
    BACKENDS,
    Machine,
    ProcessBackend,
    RawUsageError,
    SUM,
    ThreadBackend,
    resolve_backend,
    run_mpi,
)
from repro.mpi.machine import CommState
from repro.mpi.p2p import Mailbox
from repro.mpi.requests import ArrivalBarrier
from tests.backends.conftest import canon
from tests.conftest import runk

pytestmark = pytest.mark.slow


def _pid_and_result(comm):
    right = (comm.rank + 1) % comm.size
    comm.send(np.arange(8, dtype=np.int64) * comm.rank, right, tag=1)
    payload, st = comm.recv((comm.rank - 1) % comm.size, 1)
    total = comm.allreduce(comm.rank + 1, SUM)
    return (os.getpid(), payload, (st.source, st.nbytes), int(total))


def test_four_ranks_four_processes_bit_identical_results():
    got = run_mpi(_pid_and_result, 4, backend="process")
    ref = run_mpi(_pid_and_result, 4, backend="thread")

    pids = [v[0] for v in got.values]
    assert len(set(pids)) == 4, f"expected 4 distinct PIDs, got {pids}"
    assert os.getpid() not in pids, "ranks must not run in the parent"
    assert len({v[0] for v in ref.values}) == 1  # threads share one process

    assert canon([v[1:] for v in got.values]) == canon(
        [v[1:] for v in ref.values])
    assert got.times == ref.times
    assert got.counts == ref.counts
    assert got.backend == "process" and ref.backend == "thread"


def _runtime_classes(comm):
    mailboxes = comm.state.mailboxes
    return (type(comm.machine) is Machine, type(comm.state) is CommState,
            type(comm.state.barrier) is ArrivalBarrier,
            [r for r in range(comm.size) if type(mailboxes[r]) is Mailbox])


def test_a_process_rank_runs_the_shared_runtime_core():
    """No replicas: the one Machine / CommState / ArrivalBarrier, over a
    transport; only the rank's own endpoint is a mailbox."""
    res = run_mpi(_runtime_classes, 3, backend="process")
    for rank, value in enumerate(res.values):
        assert value == (True, True, True, [rank])


def _mixed_program(comm):
    p, r = comm.size, comm.rank
    total = comm.allreduce(r + 1, SUM)
    comm.send(np.arange(4) * r, (r + 1) % p, tag=3)
    ring, _ = comm.recv((r - 1) % p, 3)
    comm.ibarrier().wait()
    if r % 2 == 0:
        comm.ssend(("sync", r), r + 1, tag=4)
        pair = None
    else:
        pair, _ = comm.recv(r - 1, 4)
    sub = comm.split(r % 2, r)
    return int(total), ring, pair, sub.allgather(r)


@pytest.mark.parametrize("seed", [0, 7, 1234])
def test_fuzzed_process_run_is_bit_identical_to_plain_threads(seed):
    got = run_mpi(_mixed_program, 4, backend="process", fuzz_seed=seed)
    ref = run_mpi(_mixed_program, 4, backend="thread")
    assert canon(got.values) == canon(ref.values)
    assert got.times == ref.times
    assert got.counts == ref.counts


def _ibarrier_right_after_split(comm):
    # a rank that does not count the arrivals leaves split first, so its
    # arrival reaches the member that does before the communicator exists
    # there: it is held back and handed over when it is created
    for i in range(50):
        comm.split(0, comm.rank).ibarrier().wait()
    return comm.clock.now


def test_ibarrier_right_after_split_takes_the_early_arrivals():
    got = run_mpi(_ibarrier_right_after_split, 4, backend="process")
    ref = run_mpi(_ibarrier_right_after_split, 4, backend="thread")
    assert got.values == ref.values and got.times == ref.times


def test_runresult_shape():
    res = run_mpi(lambda comm: comm.rank, 3, backend="process")
    assert res.values == [0, 1, 2]
    assert res.machine is None  # no shared machine exists to hand back
    assert res.failed == frozenset()
    assert res.leaks is None
    assert len(res.times) == len(res.counts) == 3


def test_env_variable_selects_backend(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "process")
    res = run_mpi(lambda comm: os.getpid(), 2)
    assert res.backend == "process"
    assert os.getpid() not in res.values
    # an explicit argument beats the environment
    res = run_mpi(lambda comm: os.getpid(), 2, backend="thread")
    assert res.backend == "thread"
    assert res.values == [os.getpid()] * 2


def test_resolve_backend_registry(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)  # the CI process cell
    assert isinstance(resolve_backend(None), ThreadBackend)
    assert isinstance(resolve_backend("process"), ProcessBackend)
    inst = ProcessBackend()
    assert resolve_backend(inst) is inst  # instances pass through
    assert set(BACKENDS) == {"thread", "process"}
    with pytest.raises(RawUsageError, match="unknown execution backend"):
        resolve_backend("mpi4py")


def test_kamping_layer_over_process_backend():
    from repro.core import op, send_buf

    def prog(comm):
        return int(comm.allreduce_single(send_buf(comm.rank + 1), op(SUM)))

    got = runk(prog, 4, backend="process")
    assert got.backend == "process"
    assert got.values == [10, 10, 10, 10]


def test_backend_instance_with_start_method():
    # fork is this platform's default; passing it explicitly must behave
    # identically (spawn would require a module-level fn)
    res = run_mpi(_pid_and_result, 2, backend=ProcessBackend("fork"))
    assert len({v[0] for v in res.values}) == 2
