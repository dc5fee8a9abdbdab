"""Cluster service mechanics: jobs, admission, pipeline, batching, elasticity.

The chaos/recovery side lives in ``test_chaos.py``; this file covers the
failure-free service contract — including the one job communicator per
membership generation, the directive log's bound on the dispatcher's
pipeline, and waits that park without a timer.
"""

import threading
import time

import pytest

from repro.mpi import MIN, SUM
from repro.service import (
    Cluster,
    ClusterError,
    ClusterSaturated,
)


@pytest.fixture
def recorded_waits(monkeypatch):
    """``(thread name, timeout)`` of every wait on a ``Condition`` (so on an
    ``Event`` too) built during the test."""
    waits = []

    class Recording(threading.Condition):
        def wait(self, timeout=None):
            waits.append((threading.current_thread().name, timeout))
            return super().wait(timeout)

    monkeypatch.setattr(threading, "Condition", Recording)
    return waits


def _wait_until(predicate, what):
    give_up = time.monotonic() + 10
    while not predicate():
        assert time.monotonic() < give_up, what
        time.sleep(0.01)


class TestJobKinds:
    def test_call_job_returns_rank0_value(self):
        with Cluster(3) as c:
            h = c.submit(lambda comm: comm.raw.allreduce(comm.raw.rank, SUM))
            assert h.result(20) == 3  # 0+1+2, same on every rank
            assert h.state == "done"

    def test_call_job_args_forwarded(self):
        with Cluster(2) as c:
            h = c.submit(lambda comm, a, b: a * b, 6, 7)
            assert h.result(20) == 42

    def test_bcast_job(self):
        with Cluster(4) as c:
            h = c.submit_bcast({"cfg": 9})
            assert h.result(20) == {"cfg": 9}

    def test_allreduce_job_is_partition_oblivious(self):
        with Cluster(4) as c:
            assert c.submit_allreduce(range(100), op=SUM).result(20) == 4950
            assert c.submit_allreduce([5, -3, 8], op=MIN).result(20) == -3

    def test_epochs_job_commits_per_epoch(self):
        def step(comm, mine, epoch):
            return [(key, state + epoch) for key, state in mine]

        with Cluster(3) as c:
            h = c.submit_epochs(step, [10, 20, 30, 40], epochs=3)
            # +0, +1, +2 over three epochs, order restored by virtual key
            assert h.result(20) == [13, 23, 33, 43]

    def test_semantic_job_error_rethrown_from_handle(self):
        def boom(comm):
            raise ValueError("deterministic app bug")

        with Cluster(2) as c:
            h = c.submit(boom)
            with pytest.raises(ValueError, match="deterministic app bug"):
                h.result(20)
            assert h.state == "failed"
            # the stream survives a failed job
            assert c.submit_bcast(1).result(20) == 1

    def test_priority_orders_execution(self):
        order = []

        def mark(comm, tag):
            if comm.raw.rank == 0:
                order.append(tag)
            return tag

        with Cluster(2, hold_jobs=True) as c:
            c.submit(mark, "low", priority=5)
            c.submit(mark, "first", priority=0)
            c.submit(mark, "second", priority=1)
            c.release_jobs()
            c.drain(20)
        assert order == ["first", "second", "low"]

    def test_handle_result_timeout_and_states(self):
        with Cluster(2, hold_jobs=True) as c:
            h = c.submit_bcast(3)
            assert h.state == "queued"
            with pytest.raises(TimeoutError, match="not settled"):
                h.result(timeout=0.05)
            c.release_jobs()
            assert h.result(20) == 3
            assert h.done() and h.exception() is None


class TestAdmission:
    def test_saturation_rejects_not_blocks(self):
        with Cluster(2, queue_depth=2, hold_jobs=True) as c:
            c.submit_bcast(0)
            c.submit_bcast(1)
            with pytest.raises(ClusterSaturated, match="queue_depth=2"):
                c.submit_bcast(2)
            c.release_jobs()
            c.drain(20)

    def test_submit_after_shutdown_refused(self):
        c = Cluster(2)
        c.shutdown()
        with pytest.raises(ClusterError, match="shutting down"):
            c.submit_bcast(1)

    @pytest.mark.parametrize("bad", [
        lambda c: c.submit_epochs(lambda *_: [], [1], epochs=0),
        lambda c: c.submit_allreduce([], op=SUM),
        lambda c: c.submit_allreduce([1], op=sum),
        lambda c: c.submit_bcast(1, root=7),
    ])
    def test_submission_validation(self, bad):
        with Cluster(2) as c:
            with pytest.raises(ClusterError):
                bad(c)

    def test_constructor_validation(self):
        with pytest.raises(ClusterError, match="num_ranks"):
            Cluster(0)
        with pytest.raises(ClusterError, match="spares"):
            Cluster(2, spares=-1)
        with pytest.raises(ClusterError, match="job_timeout"):
            Cluster(2, job_timeout=0)
        with pytest.raises(ClusterError, match="queue depth"):
            Cluster(2, queue_depth=0)


class TestBatching:
    def test_compatible_bcasts_coalesce(self):
        with Cluster(4, hold_jobs=True, batch_limit=8) as c:
            handles = [c.submit_bcast(i * 10) for i in range(6)]
            c.release_jobs()
            assert [h.result(20) for h in handles] == [0, 10, 20, 30, 40, 50]
            assert c.stats["groups"] == 1
            assert c.stats["batched_groups"] == 1

    def test_allreduce_batch_exact_per_job(self):
        with Cluster(4, hold_jobs=True) as c:
            hs = c.submit_allreduce(range(10), op=SUM)
            hm = c.submit_allreduce(range(17), op=SUM)
            c.release_jobs()
            assert hs.result(20) == 45
            assert hm.result(20) == 136
            assert c.stats["batched_groups"] == 1

    def test_incompatible_shapes_stay_separate(self):
        with Cluster(4, hold_jobs=True) as c:
            c.submit_bcast(1, root=0)
            c.submit_bcast(2, root=1)            # different root
            c.submit_allreduce([1], op=SUM)      # different kind
            c.submit_bcast(3, root=0, priority=1)  # different priority
            c.release_jobs()
            c.drain(20)
            assert c.stats["groups"] == 4
            assert c.stats["batched_groups"] == 0

    def test_batch_limit_caps_group_size(self):
        with Cluster(2, hold_jobs=True, batch_limit=3) as c:
            for i in range(7):
                c.submit_bcast(i)
            c.release_jobs()
            c.drain(20)
            assert c.stats["groups"] == 3  # 3 + 3 + 1


class TestPipeline:
    """The directive log holds at most two unfinished job directives; the
    dispatcher forms the next group only once one of them finishes."""

    @staticmethod
    def _fill(c):
        """Two job directives blocked on events, five bcasts queued behind
        them; returns once both blocked jobs are dispatched."""
        gates = [threading.Event(), threading.Event()]
        held = [c.submit(lambda comm, g=g: g.wait(), label=f"held-{i}")
                for i, g in enumerate(gates)]
        bcasts = [c.submit_bcast(i) for i in range(5)]
        _wait_until(lambda: all(h.state == "running" for h in held),
                    "the blocked jobs were never dispatched")
        return gates, held, bcasts

    def test_a_full_pipeline_holds_the_backlog_then_runs_it_as_one_group(
            self):
        with Cluster(2) as c:
            gates, held, bcasts = self._fill(c)
            try:
                time.sleep(0.2)
                assert len(c.queue) == 5
                assert c.stats["groups"] == 2
                gates[0].set()
                assert held[0].result(20) is True
            finally:
                for gate in gates:
                    gate.set()
            assert [h.result(20) for h in bcasts] == list(range(5))
            assert c.stats["groups"] == 3
            assert c.stats["batched_groups"] == 1

    def test_the_dispatcher_held_at_the_bound_parks_without_a_timer(
            self, recorded_waits):
        with Cluster(2) as c:
            gates, _, _ = self._fill(c)
            try:
                time.sleep(0.5)
                timed = [t for name, t in recorded_waits
                         if name == "cluster-dispatch" and t is not None]
            finally:
                for gate in gates:
                    gate.set()
            c.drain(20)
        assert timed == []

    def test_an_idle_watchdog_parks_without_a_timer(self, recorded_waits):
        with Cluster(2, job_timeout=5):
            time.sleep(0.5)
            waits = [t for name, t in recorded_waits
                     if name == "cluster-watchdog"]
        assert len(waits) <= 2

    def test_a_drained_cluster_shuts_down_leak_clean(self):
        c = Cluster(2, sanitize=True)
        c.submit_bcast(1).result(20)
        report = c.shutdown()
        assert not report
        assert not c._directives.unfinished


class TestJobCommunicator:
    def test_one_job_communicator_per_generation(self):
        """Every job of a membership generation runs on the same dup of the
        generation's communicator, built once per rank: a rank pays one
        ``comm_dup`` per generation it serves."""
        def total(comm):
            return comm.raw.allreduce(1, SUM)

        with Cluster(3, spares=1, trace=True) as c:
            first = [c.submit(total, label=f"gen0-{i}") for i in range(6)]
            assert [h.result(20) for h in first] == [3] * 6
            c.add_rank()
            second = [c.submit(total, label=f"gen1-{i}") for i in range(3)]
            assert [h.result(20) for h in second] == [4] * 3
            comms = {}
            for e in c.tracer.all_events():
                if e.job is not None:
                    comms.setdefault(e.job.split("-")[0], set()).add(e.comm)
            assert len(comms["gen0"]) == len(comms["gen1"]) == 1
            assert comms["gen0"] != comms["gen1"]
            assert [c.machine.profile[w]["comm_dup"] for w in range(4)] == [
                2, 2, 2, 1]


class TestSpares:
    def test_idle_spares_park_without_a_timeout(self, recorded_waits):
        """A spare nobody admits waits on the admission condition with no
        timeout, and ``shutdown()`` wakes it."""
        def spare_waits():
            return [t for name, t in recorded_waits
                    if name in ("rank-2", "rank-3")]

        c = Cluster(2, spares=2)
        _wait_until(lambda: len(spare_waits()) >= 2, "the spares never parked")
        time.sleep(0.2)              # a 50 ms poll would wake here
        c.shutdown()
        assert not any(t.is_alive() for t in c._threads)
        assert spare_waits() == [None, None]

    def test_spare_claimed_just_before_shutdown_still_joins(self):
        c = Cluster(2, spares=1)
        assert c.add_rank() == 2
        c.shutdown()
        assert not any(t.is_alive() for t in c._threads)
        assert c.stats["joins"] == [2]


class TestElasticMembership:
    def test_add_rank_grows_next_jobs(self):
        with Cluster(3, spares=2) as c:
            assert c.submit(lambda comm: comm.size).result(20) == 3
            c.add_rank()
            assert c.submit(lambda comm: comm.size).result(20) == 4
            c.add_rank()
            assert c.submit(lambda comm: comm.size).result(20) == 5
            assert c.stats["joins"] == [3, 4]

    def test_join_replicates_state_to_new_buddy_ring(self):
        """Epochal state submitted before the join survives jobs after it."""
        def step(comm, mine, _epoch):
            return [(key, state * 2) for key, state in mine]

        with Cluster(2, spares=1) as c:
            first = c.submit_epochs(step, [1, 2, 3], epochs=2)
            assert first.result(20) == [4, 8, 12]
            c.add_rank()
            again = c.submit_epochs(step, [5, 6], epochs=1)
            assert again.result(20) == [10, 12]

    def test_no_spares_left(self):
        with Cluster(2, spares=0) as c:
            with pytest.raises(ClusterError, match="no spare ranks"):
                c.add_rank()


class TestTraceScoping:
    def test_handle_trace_slices_by_job_label(self):
        with Cluster(2, trace=True) as c:
            h1 = c.submit(lambda comm: comm.raw.allreduce(1, SUM),
                          label="traced-one")
            h2 = c.submit_bcast(5, label="traced-two")
            assert h1.result(20) == 2
            assert h2.result(20) == 5
            evs1, evs2 = h1.trace(), h2.trace()
            assert evs1 and all(e.job == "traced-one" for e in evs1)
            assert evs2 and all(e.job == "traced-two" for e in evs2)
            assert {e.op for e in evs1} == {"allreduce"}
            # service-internal traffic (checkpoints, dups) is not attributed
            internal = [e for e in c.tracer.all_events() if e.job is None]
            assert internal
