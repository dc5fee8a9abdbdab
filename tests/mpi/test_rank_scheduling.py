"""Rank threads run under ``SCHED_BATCH``, and nothing else does.

A woken rank thread must not preempt the rank that woke it and still holds
the GIL (``backends.base.schedule_rank_thread``).  The policy is per thread:
the caller's thread keeps its own, and a platform without the policy, or
one that refuses it, runs the same program to the same result.
"""

import os

import pytest

from repro.mpi import SUM, run_mpi
from repro.service import Cluster

linux = pytest.mark.skipif(not hasattr(os, "SCHED_BATCH"),
                           reason="SCHED_BATCH is a Linux scheduling policy")


def _policies(comm):
    """Every rank's scheduling policy, as rank 0 sees them."""
    return comm.allgather(os.sched_getscheduler(0))


@linux
def test_a_run_mpi_rank_runs_under_sched_batch():
    caller = os.sched_getscheduler(0)
    res = run_mpi(lambda comm: _policies(comm), 3, backend="thread")
    assert res.values == [[os.SCHED_BATCH] * 3] * 3
    assert os.sched_getscheduler(0) == caller


@linux
def test_a_cluster_job_runs_under_sched_batch():
    caller = os.sched_getscheduler(0)
    with Cluster(3) as cluster:
        job = cluster.submit(lambda comm: _policies(comm.raw))
        assert job.result(20) == [os.SCHED_BATCH] * 3
    assert os.sched_getscheduler(0) == caller


def _program(comm):
    total = comm.allreduce(comm.rank + 1, SUM)
    return total, comm.allgather(comm.rank * total)


@pytest.mark.parametrize("platform", ["refused", "missing"])
def test_a_run_without_the_policy_computes_the_same(monkeypatch, platform):
    expected = run_mpi(_program, 4, backend="thread")
    if platform == "refused":
        def refuse(*args):
            raise PermissionError(1, "Operation not permitted")
        monkeypatch.setattr(os, "sched_setscheduler", refuse)
    else:
        monkeypatch.delattr(os, "SCHED_BATCH", raising=False)
    res = run_mpi(_program, 4, backend="thread")
    assert res.values == expected.values
    assert res.times == expected.times
    with Cluster(2) as cluster:
        job = cluster.submit(lambda comm: _program(comm.raw))
        assert job.result(20) == (3, [0, 3])
