"""Cluster service mechanics: jobs, admission, leasing, batching, elasticity.

The chaos/recovery side lives in ``test_chaos.py``; this file covers the
failure-free service contract — including the one job communicator per
membership generation and the MPIsan lease audit at shutdown.
"""

import threading
import time

import pytest

from repro.mpi import MIN, SUM
from repro.mpi.sanitizer import ResourceLeakError
from repro.service import (
    Cluster,
    ClusterError,
    ClusterSaturated,
)


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
        with pytest.raises(ClusterError, match="lease_slots"):
            Cluster(2, lease_slots=0)


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


class TestLeases:
    def test_public_acquire_reserves_dispatcher_slot(self):
        with Cluster(2, lease_slots=2) as c:
            lease = c.acquire_lease("mine")
            assert c.pool.free_slots() == 1
            with pytest.raises(ClusterError, match="reserved for the "
                                                   "dispatcher"):
                c.acquire_lease("greedy", timeout=0.05)
            lease.release()
            assert lease.returned

    def test_unreturned_lease_reported_at_shutdown(self):
        c = Cluster(2, sanitize=True)
        c.acquire_lease("forgotten-by-client")
        with pytest.raises(ResourceLeakError) as excinfo:
            c.shutdown()
        (rec,) = excinfo.value.report.by_kind()["lease"]
        assert rec.op == "comm_lease"
        assert "forgotten-by-client" in rec.detail
        assert rec.origin  # the acquisition backtrace rides along

    def test_returned_leases_leave_shutdown_clean(self):
        c = Cluster(2, sanitize=True)
        c.acquire_lease("tidy").release()
        c.submit_bcast(1).result(20)
        report = c.shutdown()
        assert not report


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
    def test_idle_spares_park_without_a_timeout(self, monkeypatch):
        """A spare nobody admits waits on the admission condition with no
        timeout, and ``shutdown()`` wakes it."""
        class Recording(threading.Condition):
            def wait(self, timeout=None):
                self.__dict__.setdefault("timeouts", []).append(timeout)
                return super().wait(timeout)

        monkeypatch.setattr(threading, "Condition", Recording)
        c = Cluster(2, spares=2)
        cv = c._admission_cv
        give_up = time.monotonic() + 10
        while len(cv.__dict__.get("timeouts", ())) < 2:
            assert time.monotonic() < give_up, "the spares never parked"
            time.sleep(0.01)
        time.sleep(0.2)              # a 50 ms poll would wake here
        c.shutdown()
        assert not any(t.is_alive() for t in c._threads)
        assert cv.timeouts == [None, None]

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
