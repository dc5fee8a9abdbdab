"""Fault-injection campaigns: rule triggers, determinism, trace evidence.

Each rule kind (:class:`KillOnOp`, :class:`KillMidCollective`,
:class:`KillRandom`, :class:`Straggler`, :class:`KillAtCheckpoint`) is
exercised against the raw runtime; the campaign log (``injected``/``kills``)
and the ``fault:<kind>`` trace events are the assertions, so the tests pin
down not just *that* a rank died but *where* the campaign says it struck.
"""

import numpy as np
import pytest

from repro.mpi import (
    SUM,
    CollectiveEngine,
    FaultCampaign,
    KillAtCheckpoint,
    KillMidCollective,
    KillOnOp,
    KillRandom,
    RawCommRevoked,
    RawProcessFailure,
    RawUsageError,
    Straggler,
    env_fault_seed_default,
)
from repro.mpi.faultinject import OP_CATEGORIES, _matches
from tests.conftest import runp


def _survive(comm, body):
    """Run ``body()``; on failure detection revoke so blocked peers unwind.

    A survivor that detects the death first must revoke the communicator:
    its peers may be blocked on p2p rounds *with the survivor itself* (not
    the victim) and would otherwise wait out the full deadline.
    """
    try:
        body()
        return "ok"
    except RawCommRevoked:
        return "revoked"
    except RawProcessFailure:
        comm.revoke()
        return "detected"


# ---------------------------------------------------------------------------
# rule validation + selector matching
# ---------------------------------------------------------------------------


class TestRuleValidation:
    def test_nth_is_one_based(self):
        with pytest.raises(RawUsageError):
            KillOnOp(rank=0, nth=0)

    def test_mid_collective_rounds_are_one_based(self):
        with pytest.raises(RawUsageError):
            KillMidCollective(rank=0, op="allgather", after_p2p=0)

    def test_random_rate_bounds(self):
        with pytest.raises(RawUsageError):
            KillRandom(rate=1.5)

    def test_unknown_rule_rejected(self):
        with pytest.raises(RawUsageError):
            FaultCampaign(["not a rule"])

    def test_selector_matches_exact_category_and_wildcard(self):
        assert _matches(None, "allreduce")
        assert _matches("allreduce", "allreduce")
        assert not _matches("allreduce", "barrier")
        assert _matches("send", "isend")          # category
        assert _matches("collective", "alltoallv")
        assert not _matches("rma", "send")

    def test_categories_are_disjoint(self):
        seen = set()
        for members in OP_CATEGORIES.values():
            assert not (seen & members)
            seen |= members


# ---------------------------------------------------------------------------
# KillOnOp: exact op, category, wildcard, nth
# ---------------------------------------------------------------------------


class TestKillOnOp:
    def test_kills_on_nth_matching_op(self):
        def main(comm):
            out = []
            for _ in range(3):
                r = _survive(comm, lambda: comm.allreduce(1, SUM))
                out.append(r)
                if r != "ok":
                    break
            return out

        camp = FaultCampaign([KillOnOp(rank=1, op="allreduce", nth=2)])
        res = runp(main, 3, faults=camp)
        assert res.failed == frozenset({1})
        (kill,) = camp.kills()
        assert kill["kind"] == "kill_op" and kill["rank"] == 1
        assert kill["op"] == "allreduce"
        # the victim completed round 1, died entering round 2
        assert res.counts[1]["allreduce"] == 2
        for r in (0, 2):
            assert res.values[r][0] == "ok" and res.values[r][1] != "ok"

    def test_category_selector_counts_category_ops(self):
        """op="send" nth=2: the first *send-category* op survives even when
        other ops happen in between."""
        def main(comm):
            if comm.rank == 1:
                comm.send(np.array([1]), dest=0, tag=1)
                comm.allreduce(1, SUM)            # not send-category
                comm.send(np.array([2]), dest=0, tag=2)   # dies here
            else:
                comm.recv(source=1, tag=1)
                _survive(comm, lambda: comm.allreduce(1, SUM))
                try:
                    comm.recv(source=1, tag=2)
                except (RawProcessFailure, RawCommRevoked):
                    pass

        camp = FaultCampaign([KillOnOp(rank=1, op="send", nth=2)])
        res = runp(main, 2, faults=camp)
        assert res.failed == frozenset({1})
        (kill,) = camp.kills()
        assert kill["op"] == "send"
        assert res.counts[1]["send"] == 2 and res.counts[1]["allreduce"] == 1

    def test_wildcard_counts_every_op(self):
        def main(comm):
            return _survive(comm, comm.barrier)

        camp = FaultCampaign([KillOnOp(rank=1, nth=1)])
        res = runp(main, 2, faults=camp)
        assert res.failed == frozenset({1})
        assert camp.kills()[0]["kind"] == "kill_op"


# ---------------------------------------------------------------------------
# KillMidCollective: death between internal p2p rounds
# ---------------------------------------------------------------------------


class TestKillMidCollective:
    def test_dies_between_p2p_rounds(self):
        def main(comm):
            return _survive(comm, lambda: comm.allgather(comm.rank))

        camp = FaultCampaign(
            [KillMidCollective(rank=1, op="allgather", after_p2p=2)]
        )
        # after_p2p counts the default (Bruck) rounds: blind to REPRO_COLL_*
        res = runp(main, 4, faults=camp, engine=CollectiveEngine(env={}))
        assert res.failed == frozenset({1})
        (kill,) = camp.kills()
        assert kill["kind"] == "kill_mid_collective"
        assert "after 1 p2p rounds" in kill["detail"]
        # the victim *entered* the collective: it is counted
        assert res.counts[1]["allgather"] == 1
        assert all(res.values[r] in ("detected", "revoked")
                   for r in (0, 2, 3))

    def test_call_index_skips_earlier_collectives(self):
        def main(comm):
            first = _survive(comm, lambda: comm.allgather("a"))
            second = _survive(comm, lambda: comm.allgather("b"))
            return first, second

        camp = FaultCampaign(
            [KillMidCollective(rank=2, op="allgather", call=2, after_p2p=1)]
        )
        res = runp(main, 3, faults=camp)
        assert res.failed == frozenset({2})
        for r in (0, 1):
            assert res.values[r][0] == "ok" and res.values[r][1] != "ok"

    def test_algorithm_restriction_consults_engine(self):
        """The same rule restricted to the algorithm the engine does *not*
        pick stays silent; restricted to the forced one, it fires."""
        def main(comm):
            return _survive(comm, lambda: comm.allgather(comm.rank))

        for algo, should_fire in (("ring", True), ("bruck", False)):
            camp = FaultCampaign([KillMidCollective(
                rank=1, op="allgather", after_p2p=1, algorithm=algo)])
            eng = CollectiveEngine(overrides={"allgather": "ring"}, env={})
            res = runp(main, 4, faults=camp, engine=eng)
            if should_fire:
                assert res.failed == frozenset({1})
                assert "algorithm ring" in camp.kills()[0]["detail"]
            else:
                assert not res.failed
                assert all(v == "ok" for v in res.values)


# ---------------------------------------------------------------------------
# KillRandom: seeded Bernoulli, per-rule cap, replayable
# ---------------------------------------------------------------------------


class TestKillRandom:
    @staticmethod
    def _campaign_run(seed):
        def main(comm):
            for _ in range(6):
                if _survive(comm, comm.barrier) != "ok":
                    return "stopped"
            return "done"

        camp = FaultCampaign(
            [KillRandom(rate=0.35, ranks={2}, op="barrier")], seed=seed
        )
        res = runp(main, 4, faults=camp)
        return camp, res

    def test_same_seed_replays_identical_kill_sites(self):
        camp_a, res_a = self._campaign_run(seed=7)
        camp_b, res_b = self._campaign_run(seed=7)
        assert camp_a.kills() == camp_b.kills()
        assert res_a.failed == res_b.failed
        # identical kill site: the victim entered the same number of barriers
        assert res_a.counts[2]["barrier"] == res_b.counts[2]["barrier"]

    def test_rate_one_fires_on_first_matching_op(self):
        def main(comm):
            return _survive(comm, comm.barrier)

        camp = FaultCampaign([KillRandom(rate=1.0, ranks={1})], seed=0)
        res = runp(main, 3, faults=camp)
        assert res.failed == frozenset({1})
        assert camp.kills()[0]["kind"] == "kill_random"
        assert res.counts[1]["barrier"] == 1

    def test_max_kills_caps_the_rule(self):
        """rate=1.0 over every rank would kill everyone; the default cap of
        one keeps the campaign recoverable."""
        def main(comm):
            return _survive(comm, comm.barrier)

        camp = FaultCampaign([KillRandom(rate=1.0)], seed=3)
        res = runp(main, 4, faults=camp)
        assert len(res.failed) == 1
        assert len(camp.kills()) == 1

    def test_rate_zero_never_fires(self):
        camp = FaultCampaign([KillRandom(rate=0.0)], seed=11)
        res = runp(lambda comm: comm.allreduce(1, SUM), 4, faults=camp)
        assert not res.failed and not camp.injected
        assert all(v == 4 for v in res.values)


# ---------------------------------------------------------------------------
# Straggler: virtual lateness propagates through synchronization
# ---------------------------------------------------------------------------


class TestStraggler:
    def test_virtual_lateness_propagates_to_peers(self):
        def main(comm):
            for _ in range(3):
                comm.barrier()

        camp = FaultCampaign([Straggler(rank=0, virtual_seconds=0.5)])
        slow = runp(main, 2, faults=camp)
        fast = runp(main, 2)
        assert not slow.failed
        # 3 ops x 0.5 s charged to rank 0, carried to rank 1 by the barriers
        assert all(t >= 1.5 for t in slow.times)
        assert slow.max_time > fast.max_time + 1.49
        # recorded once, not once per op — and it is not a kill
        stragglers = [f for f in camp.injected if f["kind"] == "straggler"]
        assert len(stragglers) == 1
        assert not camp.kills()

    def test_real_time_straggler_does_not_touch_virtual_clock(self):
        def main(comm):
            comm.barrier()

        camp = FaultCampaign([Straggler(rank=0, real_seconds=0.05)])
        slow = runp(main, 2, faults=camp)
        fast = runp(main, 2)
        assert slow.max_time == pytest.approx(fast.max_time)


# ---------------------------------------------------------------------------
# KillAtCheckpoint: scripted program points
# ---------------------------------------------------------------------------


class TestKillAtCheckpoint:
    def test_named_checkpoint_kills_listed_ranks(self):
        def main(comm, camp):
            camp.checkpoint(comm, "after-setup")
            return _survive(comm, comm.barrier)

        camp = FaultCampaign([KillAtCheckpoint("after-setup", ranks={2})])
        res = runp(main, 3, args=(camp,), faults=camp)
        assert res.failed == frozenset({2})
        assert camp.kills()[0]["kind"] == "kill_checkpoint"
        assert res.values[2] is None

    def test_unlisted_checkpoint_is_inert(self):
        def main(comm, camp):
            camp.checkpoint(comm, "other-point")
            return "alive"

        camp = FaultCampaign([KillAtCheckpoint("after-setup", ranks={0})])
        res = runp(main, 2, args=(camp,), faults=camp)
        assert not res.failed
        assert all(v == "alive" for v in res.values)


# ---------------------------------------------------------------------------
# trace evidence: every injected fault is a fault:<kind> event
# ---------------------------------------------------------------------------


class TestFaultTraceEvents:
    def test_kills_emit_fault_events_on_the_victim_lane(self):
        def main(comm):
            return _survive(comm, lambda: comm.allreduce(1, SUM))

        camp = FaultCampaign([KillOnOp(rank=1, op="allreduce")])
        res = runp(main, 3, faults=camp, trace=True)
        events = [e for e in res.trace.events_for(1)
                  if e.op.startswith("fault:")]
        assert [e.op for e in events] == ["fault:kill_op"]
        assert events[0].duration == 0.0

    def test_chrome_export_categorizes_faults(self):
        def main(comm):
            camp = comm.machine.faults
            camp.checkpoint(comm, "cp")
            return _survive(comm, comm.barrier)

        camp = FaultCampaign([
            KillAtCheckpoint("cp", ranks={0}),
            Straggler(rank=1, virtual_seconds=0.01),
        ])
        res = runp(main, 3, faults=camp, trace=True)
        doc = res.trace.to_chrome_trace()
        faults = [ev for ev in doc["traceEvents"]
                  if ev.get("cat") == "fault"]
        names = {ev["name"] for ev in faults}
        assert names == {"fault:kill_checkpoint", "fault:straggler"}
        (kill_ev,) = [ev for ev in faults
                      if ev["name"] == "fault:kill_checkpoint"]
        assert kill_ev["tid"] == 0 and kill_ev["dur"] == 0.0

    def test_every_injected_fault_appears_in_the_trace(self):
        """Acceptance: the campaign log and the trace agree one-to-one."""
        def main(comm):
            for _ in range(4):
                if _survive(comm, comm.barrier) != "ok":
                    return

        camp = FaultCampaign(
            [KillRandom(rate=0.5, ranks={3}, op="barrier")], seed=1
        )
        res = runp(main, 4, faults=camp, trace=True)
        traced = [e for r in range(4) for e in res.trace.events_for(r)
                  if e.op.startswith("fault:")]
        assert len(traced) == len(camp.injected)
        assert ({(e.op, e.world_rank) for e in traced}
                == {(f"fault:{f['kind']}", f["rank"]) for f in camp.injected})


# ---------------------------------------------------------------------------
# seed plumbing
# ---------------------------------------------------------------------------


class TestSeedPlumbing:
    def test_env_seed_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SEED", "1234")
        assert env_fault_seed_default() == 1234
        assert FaultCampaign([]).seed == 1234

    def test_no_env_seed_means_none_and_campaign_zero(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_SEED", raising=False)
        assert env_fault_seed_default() is None
        assert FaultCampaign([]).seed == 0

    def test_explicit_seed_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SEED", "1234")
        assert FaultCampaign([], seed=9).seed == 9
