"""MPIsan resource auditor: true positives, true negatives, trace export.

Every leak kind the auditor knows (``repro.mpi.sanitizer.LEAK_KINDS``) gets a
deliberate-leak test asserting the run fails with a report naming the
operation, rank, and tag — plus matching true-negative tests showing the
identical pattern, completed properly, audits clean.
"""

from types import SimpleNamespace

import numpy as np
import pytest

import repro.mpi.sanitizer as sanitizer_module
from repro.core import Communicator, destination, send_buf_out, source
from repro.mpi import (
    SUM,
    Machine,
    ResourceLeakError,
    ScheduleFuzzer,
    TraceRecorder,
    minimize_failing_seeds,
    run_mpi,
)
from repro.mpi.sanitizer import (
    LEAK_KINDS,
    LeakReport,
    ResourceAuditor,
    env_fuzz_seed_default,
    env_sanitize_default,
)
from tests.conftest import runk, runp


def _leak_of(excinfo, kind):
    """The records of one kind from a ResourceLeakError; fails if absent."""
    recs = excinfo.value.report.by_kind().get(kind)
    assert recs, (
        f"expected a {kind!r} leak, report was:\n{excinfo.value.report.summary()}"
    )
    return recs


# ---------------------------------------------------------------------------
# True positives: one deliberate leak per kind
# ---------------------------------------------------------------------------


class TestDeliberateLeaks:
    def test_leaked_irecv_is_reported(self):
        def main(comm):
            if comm.rank == 0:
                comm.irecv(source=1, tag=7)  # never waited, never cancelled

        with pytest.raises(ResourceLeakError) as exc:
            runp(main, 2, sanitize=True)
        (rec,) = _leak_of(exc, "request")
        assert rec.op == "irecv"
        assert rec.rank == 0 and rec.world_rank == 0
        assert rec.peer == 1 and rec.tag == 7
        assert rec.origin  # creation backtrace captured
        msg = str(exc.value)
        assert "irecv" in msg and "rank 0" in msg and "tag 7" in msg
        assert "created at" in msg

    def test_undrained_unexpected_queue_is_reported(self):
        def main(comm):
            if comm.rank == 0:
                comm.send(np.array([1, 2], dtype=np.int64), dest=1, tag=4)
            # rank 1 returns without ever receiving

        with pytest.raises(ResourceLeakError) as exc:
            runp(main, 2, sanitize=True)
        (rec,) = _leak_of(exc, "unexpected")
        assert rec.rank == 1 and rec.peer == 0 and rec.tag == 4
        assert rec.nbytes == 16
        assert "tag 4" in str(exc.value)

    def test_unmatched_issend_is_reported(self):
        def main(comm):
            if comm.rank == 0:
                comm.issend(np.array([9]), dest=1, tag=3)  # never matched

        with pytest.raises(ResourceLeakError) as exc:
            runp(main, 2, sanitize=True)
        (rec,) = _leak_of(exc, "ssend_unmatched")
        assert rec.op == "issend" and rec.rank == 0
        assert rec.peer == 1 and rec.tag == 3
        # the undelivered envelope also shows up on the receiver's side
        _leak_of(exc, "unexpected")

    def test_leaked_ibarrier_is_reported(self):
        def main(comm):
            if comm.rank == 1:
                comm.ibarrier()  # rank 0 never arrives: the epoch stays open

        with pytest.raises(ResourceLeakError) as exc:
            runp(main, 2, sanitize=True)
        recs = _leak_of(exc, "request")
        assert {r.op for r in recs} == {"ibarrier"}
        assert {r.rank for r in recs} == {1}

    def test_leaked_ibcast_reports_request_not_posted_recv(self):
        """The internal receive of an i-collective is attributed to the
        request (one record), not double-reported by the mailbox sweep."""
        starts = {
            "ibcast": lambda comm: comm.ibcast(np.arange(4), root=0),
            "iallreduce": lambda comm: comm.iallreduce(np.arange(4), SUM),
        }
        for op, start in starts.items():
            def main(comm):
                req = start(comm)
                if comm.rank == 0:
                    req.wait()
                # rank 1 never completes its collective

            with pytest.raises(ResourceLeakError) as exc:
                runp(main, 2, sanitize=True)
            report = exc.value.report
            assert not report.by_kind().get("posted_recv")
            recs = _leak_of(exc, "request")
            assert {r.op for r in recs} == {op}
            assert {r.rank for r in recs} == {1}

    def test_leaked_poison_is_reported(self):
        def main(comm):
            if comm.rank == 0:
                comm.isend(send_buf_out(np.arange(8)), destination(1))
                return None  # never waited: the buffer stays read-only
            comm.recv(source(0))  # drain, so the poison is the only leak

        with pytest.raises(ResourceLeakError) as exc:
            runk(main, 2, sanitize=True)
        (rec,) = _leak_of(exc, "poison")
        assert rec.op == "isend" and rec.rank == 0
        assert rec.nbytes == 64
        assert "read-only" in rec.detail

    def test_orphan_posted_recv_is_reported(self):
        """A mailbox-level posted receive with no owning tracked request."""
        auditor = ResourceAuditor()
        machine = Machine(2, auditor=auditor)
        machine.world.mailboxes[0].post(source=1, tag=11, post_clock=0.0)
        report = auditor.collect(machine)
        (rec,) = report.by_kind()["posted_recv"]
        assert rec.kind == "posted_recv" and rec.peer == 1 and rec.tag == 11
        assert "never matched" in rec.detail

    def test_every_leak_kind_has_a_true_positive(self):
        """Meta-check: the tests above cover the full LEAK_KINDS catalogue."""
        import inspect

        covered = set()
        for name, fn in inspect.getmembers(TestDeliberateLeaks):
            if name.startswith("test_") and fn is not None:
                try:
                    src = inspect.getsource(fn)
                except (OSError, TypeError):
                    continue
                covered |= {k for k in LEAK_KINDS if f'"{k}"' in src}
        assert covered >= set(LEAK_KINDS)


# ---------------------------------------------------------------------------
# True negatives: the same patterns, completed properly
# ---------------------------------------------------------------------------


class TestCleanRuns:
    def test_completed_p2p_and_collectives_audit_clean(self):
        def main(comm):
            from repro.mpi import SUM

            if comm.rank == 0:
                comm.send(np.arange(3), dest=1, tag=1)
            else:
                comm.recv(source=0, tag=1)
            req = comm.irecv(source=comm.rank, tag=2)
            comm.send(np.array([comm.rank]), dest=comm.rank, tag=2)
            req.wait()
            comm.ibarrier().wait()
            return comm.allreduce(1, SUM)

        res = runp(main, 2, sanitize=True)
        assert res.values == [2, 2]
        assert not res.leaks and len(res.leaks) == 0

    def test_cancelled_irecv_audits_clean(self):
        def main(comm):
            req = comm.irecv(source=1, tag=9)
            assert req.cancel()
            comm.barrier()

        res = runp(main, 2, sanitize=True)
        assert not res.leaks

    def test_matched_issend_audits_clean(self):
        def main(comm):
            if comm.rank == 0:
                comm.issend(np.array([1]), dest=1, tag=5).wait()
                return None
            comm.recv(source=0, tag=5)

        assert not runp(main, 2, sanitize=True).leaks

    def test_waited_isend_releases_poison(self):
        def main(comm):
            if comm.rank == 0:
                comm.isend(send_buf_out(np.arange(8)), destination(1)).wait()
                return None
            comm.recv(source(0))

        assert not runk(main, 2, sanitize=True).leaks

    def test_unsanitized_run_reports_nothing(self):
        def main(comm):
            if comm.rank == 0:
                comm.irecv(source=1, tag=7)  # leaks — but nobody is looking

        res = runp(main, 2, sanitize=False)
        assert res.leaks is None


# ---------------------------------------------------------------------------
# Soft mode, trace export, environment gates
# ---------------------------------------------------------------------------


class TestReportingModes:
    def test_failed_rank_reports_but_does_not_raise(self):
        """Teardown after a process failure is legitimately dirty: the
        report is attached to the result, the run itself succeeds."""
        def main(comm):
            if comm.rank == 1:
                comm.raw.kill_self()
            else:
                comm.raw.send(np.array([1]), dest=1, tag=2)  # never drained

        res = runk(main, 2, sanitize=True)
        assert res.failed == frozenset({1})
        assert res.leaks and res.leaks.by_kind().get("unexpected")

    def test_leaks_flow_into_chrome_trace(self):
        tracer = TraceRecorder(2)

        def main(comm):
            if comm.rank == 0:
                comm.irecv(source=1, tag=7)

        with pytest.raises(ResourceLeakError):
            runp(main, 2, sanitize=True, trace=tracer)
        leak_events = [e for e in tracer.events_for(0) if e.op.startswith("leak:")]
        assert [e.op for e in leak_events] == ["leak:request"]
        chrome = tracer.to_chrome_trace()
        cats = {e["cat"] for e in chrome["traceEvents"] if e["name"].startswith("leak:")}
        assert cats == {"sanitizer"}

    def test_env_gate_enables_sanitizer(self, monkeypatch):
        def main(comm):
            if comm.rank == 0:
                comm.irecv(source=1, tag=7)

        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert env_sanitize_default()
        with pytest.raises(ResourceLeakError):
            run_mpi(main, 2)
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert not env_sanitize_default()
        run_mpi(main, 2)  # same leak, nobody looking

    def test_env_fuzz_seed_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_FUZZ_SEED", raising=False)
        assert env_fuzz_seed_default() is None
        monkeypatch.setenv("REPRO_FUZZ_SEED", "42")
        assert env_fuzz_seed_default() == 42

    def test_empty_report_is_falsy_and_summarizes(self):
        report = LeakReport()
        assert not report and len(report) == 0 and list(report) == []
        assert "no leaked" in report.summary()


class TestSoftModeOnFailedRuns:
    """Failed-rank runs audit in soft mode: report everything, raise nothing.

    A rank that dies mid-operation tears down with requests posted, envelopes
    undrained, and locks held — that is what dying *means*, not a bug in the
    surviving code.  The auditor therefore only attaches the report to the
    result when any rank failed; the identical leak in a failure-free run is
    a hard :class:`ResourceLeakError`.
    """

    def test_killed_ranks_own_resources_reported_not_raised(self):
        """The victim's leaked receive is in the report, but the run passes."""
        def main(comm):
            if comm.rank == 0:
                comm.irecv(source=1, tag=9)  # posted, then the rank dies
                comm.kill_self()

        res = runp(main, 2, sanitize=True)
        assert res.failed == frozenset({0})
        recs = res.leaks.by_kind().get("request")
        assert recs and recs[0].world_rank == 0 and recs[0].tag == 9

    def test_survivor_leak_on_failed_run_is_soft_too(self):
        """Soft mode is run-global: once any rank died, even a *survivor's*
        genuine leak only reports — failure unwinding routinely strands
        survivor-side resources (e.g. a recv posted at a now-dead peer), and
        the auditor cannot attribute blame post-mortem."""
        def main(comm):
            if comm.rank == 1:
                comm.kill_self()
            else:
                comm.irecv(source=1, tag=3)  # never completes: peer is dead

        res = runp(main, 2, sanitize=True)
        assert res.failed == frozenset({1})
        recs = res.leaks.by_kind().get("request")
        assert recs and recs[0].world_rank == 0

    def test_same_survivor_leak_in_clean_run_still_raises(self):
        """The control for the soft path: no failure → the identical leaked
        request is a hard error."""
        def main(comm):
            if comm.rank == 0:
                comm.irecv(source=1, tag=3)

        with pytest.raises(ResourceLeakError) as exc:
            runp(main, 2, sanitize=True)
        (rec,) = _leak_of(exc, "request")
        assert rec.world_rank == 0 and rec.tag == 3

    def test_campaign_killed_rank_gets_soft_mode(self):
        """Fault-campaign kills count as failures for the soft-mode gate."""
        from repro.mpi import FaultCampaign, KillOnOp, RawProcessFailure

        def main(comm):
            if comm.rank == 1:
                comm.send(np.array([5]), dest=0, tag=1)
            else:
                comm.irecv(source=1, tag=8)
                try:
                    comm.recv(source=1, tag=1)
                except RawProcessFailure:
                    pass

        camp = FaultCampaign([KillOnOp(rank=1, op="send", nth=1)])
        res = runp(main, 2, sanitize=True, faults=camp)
        assert res.failed == frozenset({1})
        assert res.leaks and res.leaks.by_kind().get("request")


# ---------------------------------------------------------------------------
# Schedule fuzzer: determinism contract and seed minimization
# ---------------------------------------------------------------------------


def _delays(fuzzer, n, monkeypatch):
    """What ``n`` calls of ``fuzzer.pause`` sleep, in order (``None``: a
    pause that did not sleep), without sleeping."""
    slept = []
    monkeypatch.setattr(sanitizer_module, "time",
                        SimpleNamespace(sleep=slept.append))
    out = []
    for _ in range(n):
        fuzzer.pause("deposit")
        out.append(slept.pop() if slept else None)
    return out


class TestScheduleFuzzer:
    def test_delay_streams_are_seed_deterministic(self, monkeypatch):
        # a fresh fuzzer with the same seed replays the identical stream
        assert _delays(ScheduleFuzzer(3), 32, monkeypatch) == _delays(
            ScheduleFuzzer(3), 32, monkeypatch)
        assert _delays(ScheduleFuzzer(3), 32, monkeypatch) != _delays(
            ScheduleFuzzer(4), 32, monkeypatch)

    def test_delays_stay_in_bounds(self, monkeypatch):
        """About every other pause sleeps, each less than ``max_delay``."""
        delays = _delays(ScheduleFuzzer(0, max_delay=0.01), 200, monkeypatch)
        slept = [d for d in delays if d is not None]
        assert 50 < len(slept) < 150
        assert all(0.0 <= d < 0.01 for d in slept)

    def test_streams_are_keyed_by_thread_name(self, monkeypatch):
        import threading

        def draws(fz, name):
            out = {}

            def body():
                out[name] = _delays(fz, 8, monkeypatch)

            t = threading.Thread(target=body, name=name)
            t.start()
            t.join()
            return out[name]

        fz1, fz2 = ScheduleFuzzer(7), ScheduleFuzzer(7)
        assert draws(fz1, "rank-0") == draws(fz2, "rank-0")
        assert draws(fz1, "rank-1") != draws(fz2, "rank-0")

    def test_fuzzed_run_is_correct_and_leak_free(self):
        def main(comm):
            from repro.mpi import SUM

            if comm.rank == 0:
                comm.send(np.arange(10), dest=1, tag=1)
            else:
                comm.recv(source=0, tag=1)
            return comm.allreduce(comm.rank, SUM)

        for seed in (0, 1, 2):
            res = runp(main, 2, sanitize=True, fuzz_seed=seed)
            assert res.values == [1, 1] and not res.leaks

    def test_fuzzing_does_not_change_virtual_time(self):
        def main(comm):
            from repro.mpi import SUM

            comm.allreduce(np.arange(64), SUM)
            return comm.clock.now

        base = runp(main, 4)
        fuzzed = runp(main, 4, fuzz_seed=5)
        assert base.values == fuzzed.values

    def test_minimize_failing_seeds(self):
        def run(seed):
            if seed % 3 == 0:
                raise ValueError(seed)

        assert minimize_failing_seeds(run, range(10)) == [0, 3, 6, 9]
        assert minimize_failing_seeds(run, range(10), stop_after=1) == [0]
        assert minimize_failing_seeds(run, [1, 2, 4]) == []


def test_an_absent_hook_is_none(monkeypatch):
    """An untraced, unsanitized run's machine holds ``None`` for its tracer
    and auditor (no null objects), an untraced cluster's job trace is
    ``[]``, and ``REPRO_SANITIZE=1`` still puts an auditor in that slot."""
    from repro.service import Cluster

    monkeypatch.delenv("REPRO_SANITIZE", raising=False)

    def hooks(comm):
        return comm.machine.tracer, comm.machine.auditor

    assert runp(hooks, 2).values == [(None, None)] * 2
    with Cluster(2) as cluster:
        assert cluster.tracer is None and cluster.machine.auditor is None
        job = cluster.submit_bcast(1)
        assert job.result(20) == 1 and job.trace() == []

    def leaky(comm):
        if comm.rank == 0:
            comm.irecv(source=1, tag=7)

    monkeypatch.setenv("REPRO_SANITIZE", "1")  # audited on threads only
    with pytest.raises(ResourceLeakError) as exc:
        runp(leaky, 2, backend="thread")
    (rec,) = _leak_of(exc, "request")
    assert rec.op == "irecv" and rec.rank == 0 and rec.tag == 7
