#!/usr/bin/env python
"""User-level failure mitigation and recovery (paper §V-B, Fig. 12).

Act 1 — detection: a rank dies mid-computation; the survivors catch
``MPIFailureDetected`` as an idiomatic exception, revoke the communicator,
shrink to the survivors, and finish the job on the smaller communicator —
the exact control flow of the paper's Fig. 12, with exceptions instead of
return codes.

Act 2 — recovery: the same class of failure, but nothing is lost.  A
``FaultCampaign`` kills a rank *inside* a collective (between two internal
p2p rounds of the algorithm schedule), and a ``ResilientScope`` epoch loop
restores the victim's state from its in-memory buddy checkpoint, rebalances
it onto the survivors, and retries — the final result is identical to the
failure-free run.

Run:  python examples/fault_tolerance.py
"""

from repro.core import Communicator, extend, op, run, send_buf
from repro.mpi import SUM, FaultCampaign, KillMidCollective
from repro.plugins import MPIFailureDetected, ULFM, run_resilient

FTComm = extend(Communicator, ULFM)

VICTIM = 2


# ---------------------------------------------------------------------------
# Act 1: detect, shrink, carry on (Fig. 12) — the victim's work is lost
# ---------------------------------------------------------------------------

def detect_and_shrink(comm):
    # phase 1: everyone contributes
    total = comm.allreduce_single(send_buf(comm.rank + 1), op(SUM))
    # every rank leaves phase 1 before anyone can detect the failure below
    # and revoke the communicator under a peer still receiving in phase 1
    comm.agree(True)

    # ...then one rank dies
    if comm.rank == VICTIM:
        comm.raw.kill_self()

    # phase 2: Fig. 12 — handle the failure and continue on the survivors
    try:
        comm.allreduce_single(send_buf(1), op(SUM))
        survived_directly = True
    except MPIFailureDetected:
        survived_directly = False
        if not comm.is_revoked:
            comm.revoke()
        # create a new communicator containing only the surviving processes
        comm = comm.shrink(generation=1)

    after = comm.allreduce_single(send_buf(1), op(SUM))
    return {
        "initial_sum": total,
        "survivors": comm.size,
        "post_failure_sum": after,
        "needed_recovery": not survived_directly,
    }


# ---------------------------------------------------------------------------
# Act 2: recover — buddy checkpoints make the failure invisible in the result
# ---------------------------------------------------------------------------

def resilient_sums(comm, epochs=4):
    """Iterative global accumulation, one ResilientScope epoch per step.

    Each rank owns one shard ``(rank, value)``.  Every epoch adds the
    global sum of all shard values to each shard.  When a rank dies, its
    ring successor adopts the victim's last committed shard, so the global
    sum — and therefore every surviving shard — evolves exactly as in a
    failure-free run.
    """
    def epoch(c, shards, _epoch_idx):
        local = sum(value for _key, value in shards)
        total = c.allreduce_single(send_buf(local), op(SUM))
        return [(key, value + total) for key, value in shards]

    scope = run_resilient(comm, epoch, [(comm.rank, comm.rank + 1)],
                          epochs=epochs, label="example")
    return {
        "shards": dict(scope.shards),
        "survivors": scope.comm.size,
        "recovered_from": scope.recovered_from,
    }


if __name__ == "__main__":
    print("=== Act 1: detect + shrink (Fig. 12) ===")
    result = run(detect_and_shrink, num_ranks=6, comm_class=FTComm)
    for rank, value in enumerate(result.values):
        if value is None:
            print(f"rank {rank}: died (injected failure)")
        else:
            print(f"rank {rank}: {value}")
    survivors = [v for v in result.values if v is not None]
    assert all(v["survivors"] == 5 and v["post_failure_sum"] == 5
               for v in survivors)
    print(f"recovered on {survivors[0]['survivors']} survivors ✓ "
          f"(failed ranks: {sorted(result.failed)})")

    print("\n=== Act 2: full recovery (buddy checkpoint/restart) ===")
    # baseline: the failure-free answer
    clean = run(resilient_sums, num_ranks=6, comm_class=FTComm)
    clean_shards = {}
    for v in clean.values:
        clean_shards.update(v["shards"])

    # campaign: kill the victim INSIDE the 2nd allreduce, after one
    # completed p2p round of the algorithm schedule
    campaign = FaultCampaign(
        [KillMidCollective(rank=VICTIM, op="allreduce", call=2, after_p2p=2)]
    )
    faulty = run(resilient_sums, num_ranks=6, comm_class=FTComm,
                 faults=campaign)
    merged = {}
    for rank, v in enumerate(faulty.values):
        if v is None:
            print(f"rank {rank}: died "
                  f"({campaign.kills()[0]['detail']})")
        else:
            owned = sorted(v["shards"])
            print(f"rank {rank}: owns shards of ranks {owned}, "
                  f"recovered from {v['recovered_from']}")
            merged.update(v["shards"])

    assert faulty.failed == {VICTIM}
    assert merged == clean_shards, "recovery changed the result!"
    print(f"\nall {len(merged)} shards recovered, result identical to the "
          f"failure-free run ✓")
