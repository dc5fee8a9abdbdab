"""Recovery engine: epoch loop, buddy checkpoints, and app-level campaigns.

The acceptance suite for the fault-tolerance stack: seed-pinned campaigns
kill ranks at op entries and *between the p2p rounds inside collectives*,
and the resilient sample sort must produce results identical to a
failure-free run (on the survivors).  The recovery-disabled control shows
the same faults surface as plain :class:`MPIFailureDetected` when nobody
recovers.
"""

import numpy as np
import pytest

from repro.apps.sorting.sample_sort import (
    sample_sort_kamping,
    sample_sort_resilient,
)
from repro.core import Communicator, extend, op, send_buf
from repro.core.errors import KampingError
from repro.mpi import SUM, FaultCampaign, KillMidCollective, KillOnOp, KillRandom
from repro.plugins import (
    MPIFailureDetected,
    ULFM,
    CheckpointLost,
    RecoveryFailed,
    ResilientScope,
    run_resilient,
)
from tests.conftest import runk

FTComm = extend(Communicator, ULFM)


# ---------------------------------------------------------------------------
# scope mechanics
# ---------------------------------------------------------------------------


class TestScopeMechanics:
    def test_requires_ulfm_communicator(self):
        def main(comm):
            try:
                ResilientScope(comm, [])
            except KampingError:
                return "rejected"

        res = runk(main, 2)  # plain Communicator: no agree/revoke/shrink
        assert all(v == "rejected" for v in res.values)

    def test_clean_run_commits_every_epoch(self):
        def main(comm):
            def epoch(c, shards, _epoch):
                (key, val), = shards
                return [(key, val + c.allreduce_single(send_buf(1), op(SUM)))]

            scope = run_resilient(comm, epoch, [(comm.rank, 0)], epochs=3)
            (_, total), = scope.shards
            return scope.committed, total, scope.recovered_from

        res = runk(main, 4, comm_class=FTComm)
        # genesis + 3 application epochs; every epoch added p
        assert all(v == (4, 12, []) for v in res.values)

    def test_failed_attempt_never_corrupts_committed_shards(self):
        """The epoch function mutates its working copy, then everyone fails
        the attempt: the committed state must be untouched on retry."""
        def main(comm):
            attempts = []

            def epoch(c, shards, _epoch):
                attempts.append(None)
                shards[0] = ("k", shards[0][1] + 1000)  # scribble
                if len(attempts) == 1:
                    raise MPIFailureDetected("synthetic blown attempt")
                (key, val), = shards
                return [(key, val)]

            scope = run_resilient(comm, epoch, [("k", 5)], max_attempts=3)
            return scope.shards, len(attempts)

        res = runk(main, 2, comm_class=FTComm)
        for shards, n_attempts in res.values:
            assert shards == [("k", 1005)]  # one scribble, not two
            assert n_attempts == 2  # the failed attempt + the retry

    def test_retry_cap_raises_recovery_failed(self):
        def main(comm):
            def epoch(c, shards, _epoch):
                raise MPIFailureDetected("always failing")

            try:
                run_resilient(comm, epoch, [(comm.rank, 0)], max_attempts=3)
            except RecoveryFailed as e:
                return "gave up" if "after 3 attempt(s)" in str(e) else str(e)

        res = runk(main, 2, comm_class=FTComm)
        assert all(v == "gave up" for v in res.values)

    def test_buddy_adoption_rebalances_dead_ranks_shard(self):
        def main(comm):
            first_attempt = [True]

            def epoch(c, shards, epoch):
                if epoch == 1 and first_attempt[0]:
                    first_attempt[0] = False
                    if c.raw.world_rank == 2:
                        c.raw.kill_self()
                total = c.allreduce_single(send_buf(1), op(SUM))  # detects the death
                return [(key, (val, total)) for key, val in shards]

            scope = run_resilient(comm, epoch, [(("blk", comm.rank),
                                                 comm.rank * 10)])
            return (sorted(key for key, _ in scope.shards),
                    scope.recovered_from, scope.comm.size)

        res = runk(main, 4, comm_class=FTComm)
        assert res.values[2] is None
        # ring successor 3 adopted rank 2's shard; everyone shrunk to 3
        assert res.values[3] == ([("blk", 2), ("blk", 3)], [2], 3)
        for r in (0, 1):
            assert res.values[r] == ([("blk", r)], [2], 3)

    def test_stateless_epoch_skips_the_copy_and_the_buddy_transfer(self):
        """While the replica is current a stateless epoch sends nothing and
        commits the very shard list; a stateful one replicates as before."""
        def main(comm):
            scope = ResilientScope(comm, [(comm.rank, [comm.rank])])
            sends = lambda: comm.raw.machine.profile[comm.rank]["send"]
            genesis, committed = sends(), scope.shards
            totals = []
            for _ in range(3):
                shards = scope.run_stateless(lambda c: totals.append(
                    c.allreduce_single(send_buf(1), op(SUM))))
                assert shards is committed and sends() == genesis
            scope.run(lambda _c, work, _epoch: work)
            return genesis, sends(), scope.committed, totals

        res = runk(main, 3, comm_class=FTComm)
        assert all(v == (1, 2, 5, [3, 3, 3]) for v in res.values)

    def test_stateless_epoch_replicates_on_the_first_attempt_after_a_recovery(
            self):
        """Rank 2 dies inside a stateless epoch: the retry runs on the
        survivors with the adopted shard, transfers it to its new buddy
        (so a second death is survivable), and only then skips again."""
        def main(comm):
            scope = ResilientScope(comm, [(comm.rank, comm.rank * 10)])
            sends = lambda: comm.raw.machine.profile[comm.rank]["send"]
            attempts = []

            def body(c):
                attempts.append(sends())
                if len(attempts) == 1 and c.raw.world_rank == 2:
                    c.raw.kill_self()
                c.allreduce_single(send_buf(1), op(SUM))

            scope.run_stateless(body)
            in_retry = sends() - attempts[-1]
            scope.run_stateless(body)
            return (sorted(scope.shards), scope.recovered_from,
                    in_retry, sends() - attempts[-1])

        res = runk(main, 4, comm_class=FTComm)
        assert res.values[3] == ([(2, 20), (3, 30)], [2], 1, 0)
        for r in (0, 1):
            assert res.values[r] == ([(r, r * 10)], [2], 1, 0)

    def test_genesis_death_is_honest_checkpoint_loss(self):
        """A rank killed while replicating its *initial* shards has no
        committed replica anywhere: recovery must refuse, not fabricate."""
        def main(comm):
            try:
                ResilientScope(comm, [(comm.rank, comm.rank)])
            except CheckpointLost:
                return "lost"
            return "recovered"

        # the genesis replication send is the victim's first send
        camp = FaultCampaign([KillOnOp(rank=0, op="send", nth=1)])
        res = runk(main, 4, comm_class=FTComm, faults=camp)
        assert res.failed == frozenset({0})
        assert all(res.values[r] == "lost" for r in (1, 2, 3))

    def test_buddy_pair_death_is_checkpoint_lost(self):
        def main(comm):
            first_attempt = [True]

            def epoch(c, shards, epoch):
                if epoch == 1 and first_attempt[0]:
                    first_attempt[0] = False
                    if c.raw.world_rank in (1, 2):
                        c.raw.kill_self()
                c.allreduce_single(send_buf(1), op(SUM))
                return shards

            try:
                run_resilient(comm, epoch, [(comm.rank, 0)])
            except CheckpointLost as e:
                return "lost" if "checkpoint buddy" in str(e) else str(e)
            return "recovered"

        res = runk(main, 4, comm_class=FTComm)
        # rank 2 was rank 1's buddy: both dead within one epoch → data gone
        assert all(res.values[r] == "lost" for r in (0, 3))


class TestRecoveryDisabledControl:
    def test_fault_without_recovery_raises_failure_detected(self):
        """Acceptance control: the same deliberate fault, no ResilientScope —
        the application sees plain MPIFailureDetected."""
        def main(comm):
            if comm.rank == 1:
                comm.raw.kill_self()
            try:
                comm.allreduce_single(send_buf(1), op(SUM))
            except MPIFailureDetected:
                if not comm.is_revoked:
                    comm.revoke()  # unblock peers still inside the collective
                return "detected"
            return "unexpected"

        camp = FaultCampaign([])  # campaign attached, no recovery anywhere
        res = runk(main, 4, comm_class=FTComm, faults=camp)
        assert res.failed == frozenset({1})
        assert all(res.values[r] == "detected" for r in (0, 2, 3))

    def test_campaign_kill_without_recovery_raises_failure_detected(self):
        def main(comm):
            try:
                comm.allreduce_single(send_buf(1), op(SUM))
                comm.allreduce_single(send_buf(1), op(SUM))
            except MPIFailureDetected:
                if not comm.is_revoked:
                    comm.revoke()
                return "detected"
            return "unexpected"

        camp = FaultCampaign([KillOnOp(rank=2, op="allreduce", nth=2)])
        res = runk(main, 4, comm_class=FTComm, faults=camp)
        assert res.failed == frozenset({2})
        assert all(res.values[r] == "detected" for r in (0, 1, 3))


# ---------------------------------------------------------------------------
# resilient sample sort under seed-pinned campaigns
# ---------------------------------------------------------------------------

SORT_CAMPAIGNS = {
    "kill-at-alltoallv": (
        [KillOnOp(rank=2, op="alltoallv", nth=1)], 0, {2}),
    "kill-mid-allgather": (
        [KillMidCollective(rank=1, op="allgather", after_p2p=2)], 0, {1}),
    "seeded-random": (
        [KillRandom(rate=0.15, ranks={3})], 7, {3}),
}


def _sort_inputs(p, n=200):
    return [np.random.default_rng(900 + r).integers(0, 10**6, size=n)
            for r in range(p)]


class TestResilientSampleSort:
    P = 4

    def _run(self, campaign_rules, seed):
        data = _sort_inputs(self.P)

        def main(comm):
            new_comm, block = sample_sort_resilient(comm, data[comm.rank])
            return new_comm.size, np.asarray(block)

        camp = FaultCampaign(campaign_rules, seed=seed)
        res = runk(main, self.P, comm_class=FTComm, faults=camp)
        return res, camp, np.sort(np.concatenate(data))

    @pytest.mark.parametrize("name", list(SORT_CAMPAIGNS))
    def test_campaign_result_identical_to_failure_free(self, name):
        rules, seed, expect_dead = SORT_CAMPAIGNS[name]
        res, camp, want = self._run(rules, seed)
        assert res.failed == frozenset(expect_dead)
        assert camp.kills(), "campaign was supposed to strike"
        survivors = [r for r in range(self.P) if r not in res.failed]
        merged = np.concatenate([res.values[r][1] for r in survivors])
        assert np.array_equal(merged, want)
        assert all(res.values[r][0] == len(survivors) for r in survivors)

    def test_failure_free_scope_matches_plain_sort(self):
        res, camp, want = self._run([], 0)
        assert not res.failed and not camp.injected
        merged = np.concatenate([v[1] for v in res.values])
        assert np.array_equal(merged, want)

    def test_mid_collective_fault_is_traced(self):
        """Acceptance: the mid-collective kill shows up as fault:<kind>."""
        rules, seed, _ = SORT_CAMPAIGNS["kill-mid-allgather"]
        data = _sort_inputs(self.P)

        def main(comm):
            return sample_sort_resilient(comm, data[comm.rank])[1]

        camp = FaultCampaign(rules, seed=seed)
        res = runk(main, self.P, comm_class=FTComm, faults=camp,
                   trace=True)
        fault_ops = [e.op for e in res.trace.events_for(1)
                     if e.op.startswith("fault:")]
        assert fault_ops == ["fault:kill_mid_collective"]


# ---------------------------------------------------------------------------
# retry policy: the max_attempts budget
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    """``max_attempts=`` bounds each epoch's recovery loop."""

    def test_max_attempts_validated(self):
        def main(comm):
            try:
                ResilientScope(comm, [], max_attempts=0)
            except KampingError as e:
                return "first try counts as an attempt" in str(e)

        res = runk(main, 2, comm_class=FTComm)
        assert all(res.values)

    def test_attempt_budget_exhaustion(self):
        """max_attempts counts the first try: a budget of 3 runs the epoch
        exactly three times before RecoveryFailed."""
        def main(comm):
            tries = []

            def epoch(c, shards, _epoch):
                tries.append(None)
                raise MPIFailureDetected("synthetic blown attempt")

            scope = ResilientScope(comm, [("k", comm.rank)], max_attempts=3)
            try:
                scope.run(epoch)
            except RecoveryFailed as e:
                return len(tries), "max_attempts=3" in str(e)

        res = runk(main, 2, comm_class=FTComm)
        assert all(v == (3, True) for v in res.values)

    def test_success_on_last_attempt_commits(self):
        """An epoch that stops failing exactly when the budget runs out must
        commit, not raise — the budget bounds retries, not successes."""
        def main(comm):
            tries = []

            def epoch(c, shards, _epoch):
                tries.append(None)
                if len(tries) < 3:
                    raise MPIFailureDetected("synthetic blown attempt")
                (key, val), = shards
                return [(key, val + 100)]

            scope = ResilientScope(comm, [("k", 7)], max_attempts=3)
            scope.run(epoch)
            return scope.shards, len(tries)

        res = runk(main, 2, comm_class=FTComm)
        assert all(v == ([("k", 107)], 3) for v in res.values)

    def test_exhausted_budget_names_attempts_and_budget(self):
        """A budget of four runs the epoch four times, and the one
        RecoveryFailed message says how many attempts ran of what budget."""
        def main(comm):
            tries = []

            def epoch(c, shards, _epoch):
                tries.append(None)
                raise MPIFailureDetected("synthetic blown attempt")

            try:
                run_resilient(comm, epoch, [], max_attempts=4)
            except RecoveryFailed as e:
                return len(tries), "after 4 attempt(s) (max_attempts=4)" in str(e)

        res = runk(main, 2, comm_class=FTComm)
        assert all(v == (4, True) for v in res.values)
