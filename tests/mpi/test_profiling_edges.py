"""Edge cases of the PMPI-style profiling helpers.

Covers the corners of :mod:`repro.mpi.profiling` the main suites skip over:
zero-expected ops, overlapping nested ``expect_calls`` blocks, empty
``call_delta`` snapshots, and the counters of a rank killed mid-run at a
:class:`~repro.mpi.faultinject.KillAtCheckpoint` (dead ranks keep the calls
they made before dying).
"""

from collections import Counter

import pytest

from repro.mpi import (
    SUM, FaultCampaign, KillAtCheckpoint, call_delta, expect_calls, run_mpi,
    snapshot)
from tests.conftest import runp


class TestZeroExpectedOps:
    def test_zero_count_means_op_must_not_occur(self):
        def main(comm):
            with expect_calls(comm, barrier=0, send=0):
                comm.allreduce(1, SUM)
            return True

        with pytest.raises(RuntimeError, match="unexpected raw call"):
            runp(main, 2)

    def test_zero_count_passes_when_op_absent(self):
        def main(comm):
            with expect_calls(comm, barrier=0, allreduce=1):
                comm.allreduce(1, SUM)
            return True

        assert all(runp(main, 2).values)

    def test_empty_expectation_on_empty_block(self):
        def main(comm):
            with expect_calls(comm):
                pass
            return True

        assert all(runp(main, 2).values)

    def test_violating_zero_expectation_names_the_op(self):
        def main(comm):
            with expect_calls(comm, barrier=0):
                comm.barrier()

        with pytest.raises(RuntimeError, match=r"expected 0 × barrier"):
            runp(main, 2)


class TestNestedExpectCalls:
    def test_overlapping_blocks_each_see_their_own_delta(self):
        """The outer block counts the inner block's calls plus its own."""
        def main(comm):
            with expect_calls(comm, allreduce=2, barrier=1):
                comm.allreduce(1, SUM)
                with expect_calls(comm, allreduce=1):
                    comm.allreduce(2, SUM)
                comm.barrier()
            return True

        assert all(runp(main, 3).values)

    def test_inner_violation_raises_before_outer_exit(self):
        def main(comm):
            with expect_calls(comm, allreduce=2):
                with expect_calls(comm, allreduce=0):
                    comm.allreduce(1, SUM)
                comm.allreduce(2, SUM)

        with pytest.raises(RuntimeError, match=r"expected 0 × allreduce"):
            runp(main, 2)

    def test_sequential_blocks_do_not_leak_counts(self):
        def main(comm):
            with expect_calls(comm, barrier=1):
                comm.barrier()
            with expect_calls(comm, allreduce=1):
                comm.allreduce(1, SUM)
            return True

        assert all(runp(main, 2).values)


class TestCallDelta:
    def test_empty_delta_is_empty_counter(self):
        def main(comm):
            before = snapshot(comm)
            return call_delta(comm, before)

        res = runp(main, 2)
        assert all(delta == Counter() for delta in res.values)

    def test_delta_excludes_calls_before_the_snapshot(self):
        def main(comm):
            comm.barrier()
            comm.barrier()
            before = snapshot(comm)
            comm.allreduce(1, SUM)
            delta = call_delta(comm, before)
            return dict(delta)

        res = runp(main, 2)
        assert res.values == [{"allreduce": 1}] * 2

    def test_snapshot_is_isolated_from_later_calls(self):
        def main(comm):
            before = snapshot(comm)
            comm.barrier()
            return dict(before)

        res = runp(main, 2)
        assert res.values == [{}] * 2


def _kill_rank_1_at_mid():
    return FaultCampaign([KillAtCheckpoint("mid", {1})])


class TestDeadRankCounters:
    def test_killed_rank_keeps_its_pre_death_counts(self):
        """A rank dying at a checkpoint leaves its PMPI counters frozen at
        the calls it made while alive; the survivor's profile is unaffected.
        """
        def main(comm):
            if comm.rank == 1:
                comm.send((b"x" * 16), 0, tag=3)
                comm.machine.faults.checkpoint(comm, "mid")
                comm.send(b"never", 0, tag=4)  # unreachable
            elif comm.rank == 0:
                payload, status = comm.recv(1, 3)
                return len(payload)
            return None

        res = run_mpi(main, 2, deadline=5.0, backend="thread",
                      faults=_kill_rank_1_at_mid())
        assert res.failed == frozenset({1})
        assert res.values[1] is None
        assert res.values[0] == 16
        # the dead rank's profile records exactly its pre-death activity
        assert res.counts[1] == Counter({"send": 1})
        assert res.counts[0] == Counter({"recv": 1})

    def test_killed_rank_trace_matches_its_counters(self):
        """With tracing on, a dead rank's event log ends where it died and
        agrees with its frozen counters."""
        def main(comm):
            if comm.rank == 1:
                comm.send(b"payload", 0, tag=1)
                comm.machine.faults.checkpoint(comm, "mid")
            elif comm.rank == 0:
                comm.recv(1, 1)
            return comm.rank

        res = run_mpi(main, 2, deadline=5.0, backend="thread", trace=True,
                      faults=_kill_rank_1_at_mid())
        assert res.failed == frozenset({1})
        dead_events = res.trace.events_for(1)
        # ... and ends with the campaign's record of the kill
        assert [e.op for e in dead_events] == ["send", "fault:kill_checkpoint"]
        assert dead_events[0].sent == len(b"payload")
        assert res.counts[1] == Counter({"send": 1})
