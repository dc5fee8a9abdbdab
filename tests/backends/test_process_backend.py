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
    ProcessBackend,
    RawUsageError,
    SUM,
    ThreadBackend,
    resolve_backend,
    run_mpi,
)
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
