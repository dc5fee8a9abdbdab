"""Chaos suite: the cluster drains a 50-job stream through rank kills.

The acceptance bar for the service: under every pinned campaign seed, a
50-job stream with ranks killed mid-job must drain completely with results
*bit-identical* to the failure-free run, and no job directive may be left
unfinished at ``Cluster.shutdown()``.

Seeds follow the fault-campaign convention: the matrix covers
``{0, 7, 1234}`` and setting ``REPRO_FAULT_SEED`` replays exactly one of
them (the other matrix cells skip), so a red CI cell reproduces locally
from the seed alone.  Each cell also sets ``REPRO_FUZZ_SEED`` to its seed:
the ranks race to form each directive at the log's end, and the schedule
fuzzer perturbs who wins.
"""

import os
import threading

import pytest

from repro.mpi import (
    MAX,
    SUM,
    FaultCampaign,
    KillMidCollective,
    KillOnOp,
    KillRandom,
    RunTimeout,
)
from repro.service import Cluster, ClusterError

#: the pinned soak seeds (mirrored by the ``cluster-chaos`` CI matrix)
SOAK_SEEDS = (0, 7, 1234)


def _seed_pinned(seed: int) -> None:
    pin = os.environ.get("REPRO_FAULT_SEED")
    if pin is not None and int(pin) != seed:
        pytest.skip(f"REPRO_FAULT_SEED={pin} pins a different campaign seed")


def submit_stream(cluster: Cluster) -> list:
    """50 mixed jobs whose results are independent of the membership size.

    Integer domains only: the drain must be *bit*-identical across shrinks,
    so every job is closed under reassociation (sums/maxima of ints, bcasts,
    and collectives counting contributions by world-visible structure).
    """
    handles = []
    for i in range(50):
        kind = i % 4
        if kind == 0:
            handles.append(cluster.submit_bcast(i * 7, label=f"b{i}"))
        elif kind == 1:
            handles.append(cluster.submit_allreduce(
                range(i + 1), op=SUM, label=f"s{i}"))
        elif kind == 2:
            handles.append(cluster.submit_allreduce(
                [x * 3 for x in range(i + 2)], op=MAX, label=f"m{i}"))
        else:
            def job(comm, x=i):
                got = comm.raw.bcast(x if comm.raw.rank == 0 else None, 0)
                one_root = comm.raw.allreduce(
                    1 if comm.raw.rank == 0 else 0, SUM)
                return got + one_root
            handles.append(cluster.submit(job, label=f"c{i}"))
    return handles


@pytest.fixture(scope="module")
def failure_free_drain():
    with Cluster(4, hold_jobs=True) as cluster:
        handles = submit_stream(cluster)
        cluster.release_jobs()
        return [h.result(60) for h in handles]


class TestChaosSoak:
    @pytest.mark.timeout(300)
    @pytest.mark.parametrize("fault_seed", SOAK_SEEDS)
    def test_stream_drains_bit_identical_under_kills(self, fault_seed,
                                                     failure_free_drain):
        _seed_pinned(fault_seed)
        campaign = FaultCampaign(
            [KillOnOp(rank=2, op="bcast", nth=12),
             KillRandom(rate=0.002, max_kills=1)],
            seed=fault_seed,
        )
        cluster = Cluster(4, hold_jobs=True, faults=campaign, sanitize=True)
        handles = submit_stream(cluster)
        cluster.release_jobs()
        drained = [h.result(120) for h in handles]

        kills = campaign.kills()
        assert kills, "the campaign must kill at least one rank mid-stream"
        assert drained == failure_free_drain, (
            f"seed {fault_seed}: chaos drain diverged from the failure-free "
            f"run (kills: {kills})"
        )
        assert set(cluster.stats["recoveries"]) == {k["rank"] for k in kills}
        # every job directive finishes even though ranks died mid-stream
        cluster.shutdown()
        assert not cluster._directives.unfinished

    @pytest.mark.timeout(180)
    def test_mid_collective_kill_drains_too(self, failure_free_drain):
        _seed_pinned(0)
        campaign = FaultCampaign(
            [KillMidCollective(rank=1, op="allreduce", call=9,
                               after_p2p=2)], seed=0)
        cluster = Cluster(4, hold_jobs=True, faults=campaign, sanitize=True)
        handles = submit_stream(cluster)
        cluster.release_jobs()
        drained = [h.result(120) for h in handles]
        assert campaign.kills()
        assert drained == failure_free_drain
        cluster.shutdown()
        assert not cluster._directives.unfinished


class TestJobTimeoutWedge:
    @pytest.mark.timeout(120)
    def test_hung_job_fails_stream_with_stacks_naming_the_job(self):
        """A non-SPMD job (one rank never returns) cannot be recovered —
        the ``job_timeout`` watchdog fails the outstanding handles with
        :class:`RunTimeout` naming the hung job and carrying per-rank
        stacks, and wedges the cluster; the run is dirty, so the MPIsan
        audit at shutdown reports rather than raises."""
        stall = threading.Event()

        def hang(comm):
            if comm.raw.rank == comm.raw.size - 1:
                stall.wait()
            return "finished"

        cluster = Cluster(3, job_timeout=1.0, deadline=4.0, sanitize=True)
        try:
            handle = cluster.submit(hang, label="wedger")
            error = handle.exception(timeout=30)
            assert isinstance(error, RunTimeout)
            assert "job watchdog" in str(error)
            assert "(wedger)" in str(error)
            assert any("hang" in stack or "wait" in stack
                       for stack in error.stacks.values())
            assert cluster.wedged
            with pytest.raises(ClusterError, match="wedged"):
                cluster.submit_bcast(1)
            assert cluster.shutdown(timeout=10) is not None
            assert list(cluster._directives.unfinished) == [0]
        finally:
            stall.set()
