"""Cluster service mechanics: jobs, admission, pipeline, batching, elasticity.

The chaos/recovery side lives in ``test_chaos.py``; this file covers the
failure-free service contract — including the one job communicator per
membership generation, the bound on unfinished job directives that forming
them at the log's end implies, the log's own length, and waits that park
without a timer.
"""

import functools
import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest

from repro.mpi import (
    BUILTIN_OPS,
    MIN,
    SUM,
    CollectiveEngine,
    FaultCampaign,
    KillOnOp,
    Op,
    RunTimeout,
    user_op,
)
from repro.service import (
    Cluster,
    ClusterError,
    ClusterSaturated,
    JobHandle,
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

    def test_fuzz_seed_comes_from_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_FUZZ_SEED", "7")
        with Cluster(2) as c:
            assert c.machine.fuzzer.seed == 7
        monkeypatch.delenv("REPRO_FUZZ_SEED")
        with Cluster(2) as c:
            assert c.machine.fuzzer is None


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

    @staticmethod
    def _drain(stream, batch_limit=8, engine=None):
        """Each ``(values, op, priority)`` job's result, submitted while
        held: jobs of one op and priority form one group."""
        with Cluster(4, hold_jobs=True, batch_limit=batch_limit,
                     engine=engine) as c:
            handles = [c.submit_allreduce(values, op=op, priority=priority)
                       for values, op, priority in stream]
            c.release_jobs()
            return [h.result(20) for h in handles], dict(c.stats)

    @staticmethod
    def _count_op_calls(monkeypatch) -> list:
        calls = []
        real = Op.__call__

        def counted(self, a, b):
            calls.append(self.name)
            return real(self, a, b)

        monkeypatch.setattr(Op, "__call__", counted)
        return calls

    @pytest.mark.parametrize("dtype", ["int64", "int32", "uint64", "bool"])
    @pytest.mark.parametrize("name", sorted(BUILTIN_OPS))
    def test_every_builtin_op_batches_exactly(self, name, dtype,
                                              monkeypatch):
        """Each job's result equals the left fold of its values, in value
        and in type: bools stay bools, fixed-width ints wrap around.  Jobs
        of two and three values leave ranks without a value at p = 4, and
        still the group reduces with the op's own kernel — only the
        schedule's combines (recursive doubling: 2 per rank) call the op —
        unless the op leaves the dtype (the logical ops on ints)."""
        op = BUILTIN_OPS[name]
        rng = np.random.default_rng(sorted(BUILTIN_OPS).index(name))
        sizes = (2, 3, 2, 4, 5, 3, 9, 16)
        if dtype == "bool":
            jobs = [rng.integers(0, 2, n).astype(bool).tolist()
                    for n in sizes]
        else:
            info = np.iinfo(dtype)
            jobs = [rng.integers(info.min, info.max, n, dtype=dtype).tolist()
                    for n in sizes]
            jobs[-1] = [info.max, 1, 0, 0, info.max]  # wraps under SUM
            scalar = int if dtype == "int64" else np.dtype(dtype).type
            jobs = [[scalar(v) for v in job] for job in jobs]
        calls = self._count_op_calls(monkeypatch)
        results, stats = self._drain([(values, op, 0) for values in jobs],
                                     engine=CollectiveEngine(env={}))
        kernel_calls = len(calls)
        assert stats["groups"] == 1
        if dtype == "bool" or name not in ("land", "lor", "lxor"):
            assert kernel_calls <= 2 * 4, calls
        with np.errstate(over="ignore"):
            for values, got in zip(jobs, results):
                want = functools.reduce(op, values)
                assert got == want and type(got) is type(want), (values, got)

    def test_groups_off_the_array_path_match_unbatched_runs(self):
        """A lone value, floats, user ops, ints beyond int64, objects, mixed
        scalar types, ``LAND`` on ints — and uint64 beyond int64 on the
        array path — give what each job gives alone."""
        add = user_op(lambda a, b: a + b, name="add")
        groups = [
            [([7], SUM), (range(10), SUM)],               # a lone value
            [([0.1, 0.2, 0.3, 0.4, 0.5], SUM), ([1e16, 1.0, -1e16, 3.0], SUM)],
            [([2**64, 3, 5, 7], add), ([2**70, -1, 4, 4, 4], add)],
            [([np.uint64(2**63 + 5)] * 6, SUM), ([np.uint64(7)] * 4, SUM)],
            [([Fraction(1, 3), Fraction(1, 6), 1, 2], SUM), (range(5), SUM)],
            [([np.int32(1), 5, 7, 9], SUM), ([True, True, 2, 3], SUM)],
            [([3, 5, 6, 9], BUILTIN_OPS["land"]),
             ([0, 5, 0, 9], BUILTIN_OPS["land"])],
        ]
        stream = [(values, op, priority)
                  for priority, group in enumerate(groups)
                  for values, op in group]
        batched, stats = self._drain(stream)
        assert stats["batched_groups"] == len(groups)
        unbatched, _ = self._drain(stream, batch_limit=1)
        assert batched == unbatched
        assert [type(v) for v in batched] == [type(v) for v in unbatched]

    def test_a_lone_value_at_p1_stays_its_own_result(self):
        """And at p = 4: a group holding a one-value job keeps the list
        path, whose merge of the pair's partials is a NumPy scalar too."""
        for p in (1, 4):
            with Cluster(p, hold_jobs=True) as c:
                lone = c.submit_allreduce([5], op=SUM)
                pair = c.submit_allreduce([5, 6], op=SUM)
                c.release_jobs()
                assert type(lone.result(20)) is int and lone.result(20) == 5
                assert type(pair.result(20)) is np.int64
                assert pair.result(20) == 11
                assert c.stats["batched_groups"] == 1

    def test_a_batched_integer_group_reduces_with_the_ops_own_kernel(
            self, monkeypatch):
        """8 jobs x 64 values at p = 4 make only the schedule's combines
        (recursive doubling: 2 per rank), not one call per value."""
        calls = self._count_op_calls(monkeypatch)
        stream = [(range(i, i + 64), SUM, 0) for i in range(8)]
        results, stats = self._drain(
            stream, engine=CollectiveEngine(env={}))
        assert results == [sum(range(i, i + 64)) for i in range(8)]
        assert stats["groups"] == 1
        assert len(calls) <= 2 * 4, calls


class TestDirectives:
    """A directive carries every queued group of its head's priority while
    the head is batchable, and ends in one ``agree``."""

    def test_a_held_batchable_stream_runs_as_one_directive(self):
        with Cluster(4, hold_jobs=True) as c:
            handles = [c.submit_bcast("cfg"),
                       c.submit_allreduce([3, 4, 5], op=SUM),
                       c.submit_allreduce([3, 9], op=BUILTIN_OPS["max"])]
            c.release_jobs()
            assert [h.result(20) for h in handles] == ["cfg", 12, 9]
            assert (c.stats["directives"], c.stats["groups"]) == (1, 3)
            # the scope's genesis commit, then one per directive
            assert [c.machine.profile[w]["comm_agree"]
                    for w in range(4)] == [2] * 4

    def test_an_unbatchable_job_is_a_directive_alone(self):
        with Cluster(2, hold_jobs=True) as c:
            c.submit(lambda comm: "head")
            c.submit_bcast(1)
            c.submit_allreduce([1, 2], op=SUM)
            c.submit(lambda comm: "middle")
            c.submit_bcast(2, root=1)
            c.release_jobs()
            c.drain(20)
            # [call] [bcast, SUM] [call] [bcast root 1]
            assert (c.stats["directives"], c.stats["groups"]) == (4, 5)

    def test_jobs_of_two_priorities_never_share_a_directive(self):
        with Cluster(2, hold_jobs=True) as c:
            for priority in (0, 1):
                c.submit_bcast(priority, priority=priority)
                c.submit_allreduce([1, 2], op=SUM, priority=priority)
            c.release_jobs()
            c.drain(20)
            assert (c.stats["directives"], c.stats["groups"]) == (2, 4)


class TestHandleLatch:
    def test_every_blocked_waiter_returns_the_value(self):
        handle = JobHandle(0, "latched")
        got = []
        waiters = [threading.Thread(target=lambda: got.append(
            handle.result(60))) for _ in range(3)]
        for t in waiters:
            t.start()
        time.sleep(0.05)
        assert got == []
        handle._settle(("ok", 42))
        for t in waiters:      # each passes the latch on: no waiter times out
            t.join(5)
        assert not any(t.is_alive() for t in waiters)
        assert got == [42, 42, 42]
        assert handle.result(0) == 42 and handle.exception(-1) is None

    @pytest.mark.parametrize("timeout", [0, -1, -0.5])
    def test_a_non_positive_timeout_on_an_unsettled_handle_returns_at_once(
            self, timeout):
        handle = JobHandle(0, "latched")
        t0 = time.monotonic()
        with pytest.raises(TimeoutError, match="not settled"):
            handle.result(timeout)
        assert time.monotonic() - t0 < 0.05

    def test_a_rejection_racing_a_settle_keeps_the_first_outcome(self):
        """Two ranks' commits race two watchdog rejections (more threads
        than cores, a short switch interval): one outcome wins, and the
        cluster hears of the settlement once."""
        class Counting:
            settled = 0

            def _on_settled(self, handle):
                Counting.settled += 1

        outcomes = [("ok", 7), ("ok", 8), ("err", RunTimeout("watchdog 1")),
                    ("err", RunTimeout("watchdog 2"))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(200):
                Counting.settled = 0
                handle = JobHandle(0, "raced", cluster=Counting())
                start = threading.Barrier(len(outcomes))
                won = [None] * len(outcomes)

                def settle(i):
                    start.wait()
                    won[i] = handle._settle(outcomes[i])

                racers = [threading.Thread(target=settle, args=(i,))
                          for i in range(len(outcomes))]
                for t in racers:
                    t.start()
                for t in racers:
                    t.join(20)
                assert not any(t.is_alive() for t in racers)
                assert won.count(True) == 1 and Counting.settled == 1
                first = outcomes[won.index(True)]
                assert handle._outcome is first
                assert handle.exception(0) is (
                    first[1] if first[0] == "err" else None)
        finally:
            sys.setswitchinterval(interval)


class TestPipeline:
    """The first rank at the log's end forms the next directive, so one
    forms only once a rank has passed the previous one's ``agree``: at most
    two job directives are unfinished, and jobs submitted while one runs
    join the next."""

    def test_jobs_queued_behind_a_running_directive_join_the_next(self):
        with Cluster(2) as c:
            gate = threading.Event()
            held = c.submit(lambda comm: gate.wait(), label="held")
            try:
                _wait_until(lambda: held.state == "running",
                            "the blocked job never ran")
                second = c.submit(lambda comm: "second")
                bcasts = [c.submit_bcast(i) for i in range(5)]
                time.sleep(0.2)
                assert len(c.queue) == 6
                assert c.stats["directives"] == 1
                assert len(c._directives.unfinished) == 1
            finally:
                gate.set()
            assert held.result(20) is True and second.result(20) == "second"
            assert [h.result(20) for h in bcasts] == list(range(5))
            assert c.stats["directives"] == c.stats["groups"] == 3
            assert c.stats["batched_groups"] == 1

    def test_ranks_waiting_for_work_park_without_a_timer(
            self, recorded_waits):
        with Cluster(2) as c:
            c.submit_bcast(1).result(20)
            time.sleep(0.1)            # the ranks pass the agree and park
            recorded_waits.clear()
            time.sleep(0.5)            # a 50 ms poll would wake here
            timed = [(name, t) for name, t in recorded_waits
                     if name.startswith("rank-") and t is not None]
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


def _log_bounded(c):
    """At most two job directives are unfinished, and the log holds them
    and at most one trailing join or shutdown directive."""
    log = c._directives
    with log.cv:
        return (len(log.unfinished) <= 2
                and len(log.log) <= len(log.unfinished) + 1)


def _closed_loop(c, jobs, window=16):
    """Submit ``(kind, x)`` jobs keeping ``window`` outstanding; returns the
    results in submission order and asserts the log's bound at every
    submission."""
    def submit(kind, x):
        if kind == "bcast":
            return c.submit_bcast(x)
        if kind == "allreduce":
            return c.submit_allreduce(range(x), op=SUM)
        return c.submit(x)

    pending, results = [], []
    for kind, x in jobs:
        if len(pending) == window:
            results.append(pending.pop(0).result(60))
        pending.append(submit(kind, x))
        assert _log_bounded(c)
    results.extend(h.result(60) for h in pending)
    return results


def _stream(n, start=0):
    jobs = [("bcast" if i % 2 == 0 else "allreduce", i % 40 + 1)
            for i in range(start, start + n)]
    expected = [x if kind == "bcast" else x * (x - 1) // 2
                for kind, x in jobs]
    return jobs, expected


class TestBoundedLog:
    """A finished directive leaves the log with every one before it, so a
    cluster's memory does not grow with the jobs it has run."""

    def test_a_long_stream_keeps_only_the_unfinished_directives(self):
        jobs, expected = _stream(2000)
        with Cluster(4) as c:
            assert _closed_loop(c, jobs) == expected
            c.drain(20)
            assert _log_bounded(c)
            assert c._directives.first > c.stats["directives"] - 2
        assert not c._directives.unfinished
        assert [type(d).__name__ for d in c._directives.log] == [
            "_ShutdownDirective"]
        assert c._directives.log[0].index == c._directives.first

    def test_a_spare_joins_after_trimmed_directives(self):
        """Under a short switch interval (more threads than cores), so a
        trim that outran a rank's or the spare's read would show."""
        jobs, expected = _stream(200)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with Cluster(3, spares=1) as c:
                assert _closed_loop(c, jobs) == expected
                trimmed = c._directives.first
                assert trimmed > 10
                assert c.add_rank() == 3
                assert c.submit(lambda comm: comm.size).result(20) == 4
                cursor, members, generation = c._admission[3]
                assert cursor == generation > trimmed
                assert members == (0, 1, 2, 3)
                more, want = _stream(200, start=200)
                assert _closed_loop(c, more) == want
                assert c.stats["joins"] == [3]
        finally:
            sys.setswitchinterval(interval)
        assert not c.wedged and _log_bounded(c)

    def test_a_kill_after_trims_drains_bit_identically(self):
        """Rank 2 dies in the barrier of a fence job run once the first 600
        jobs' directives have left the log; the survivors replay it and
        drain the rest."""
        def fence(comm):
            comm.raw.barrier()
            return "fenced"

        first, want_first = _stream(600)
        rest, want_rest = _stream(600, start=600)
        campaign = FaultCampaign([KillOnOp(rank=2, op="barrier")], seed=0)
        with Cluster(4, faults=campaign, sanitize=True) as c:
            assert _closed_loop(c, first) == want_first
            trimmed = c._directives.first
            assert trimmed > 20 and c.stats["recoveries"] == []
            assert _closed_loop(c, [("call", fence)] + rest) == (
                ["fenced"] + want_rest)
            assert [k["rank"] for k in campaign.kills()] == [2]
            assert c.stats["recoveries"] == [2]
            assert c._directives.first > trimmed + 20
        assert not c._directives.unfinished
        assert _log_bounded(c)


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

    def test_groups_sharing_a_directive_keep_their_own_labels(self):
        with Cluster(4, hold_jobs=True, trace=True) as c:
            handles = {
                "bcast": c.submit_bcast(1, label="own-b"),
                "allreduce": c.submit_allreduce([1, 2, 3], op=SUM,
                                                label="own-s"),
            }
            c.release_jobs()
            c.drain(20)
            assert (c.stats["directives"], c.stats["groups"]) == (1, 2)
            for op, h in handles.items():
                evs = h.trace()
                assert len(evs) == 4 and {e.op for e in evs} == {op}
                assert {e.job for e in evs} == {h.label}
