#!/usr/bin/env python
"""Running a cluster service: one persistent machine, many jobs.

Everything else in this repo is one-shot — ``run_mpi(fn)`` spins ranks up,
runs one program, tears them down.  The cluster service keeps the ranks
*alive*: a :class:`~repro.service.Cluster` owns a machine for its whole
lifetime and feeds it a stream of jobs through an admission-controlled
queue; every job of a membership generation runs on one duplicate of the
generation's communicator.

Three acts:

1. **A job stream** — mixed bcast/allreduce/custom jobs drain through the
   service; compatible small collectives are coalesced into shared batches
   (the service-level analogue of the IR's ``batch_bcasts`` rewrite).
2. **Chaos** — a :class:`~repro.mpi.FaultCampaign` kills a rank mid-stream;
   the service revokes, shrinks, restores from ring-buddy checkpoints, and
   the drained results are bit-identical to the failure-free run.
3. **Elastic membership** — a spare rank joins at an epoch boundary and the
   very next job sees the larger world.

Run:  python examples/cluster_service.py
"""

from repro.mpi import SUM, FaultCampaign, KillOnOp
from repro.service import Cluster


def submit_stream(cluster):
    handles = []
    for i in range(24):
        if i % 3 == 0:
            handles.append(cluster.submit_bcast(i * 11, label=f"b{i}"))
        elif i % 3 == 1:
            handles.append(
                cluster.submit_allreduce(range(i + 1), op=SUM, label=f"s{i}"))
        else:
            def job(comm, x=i):
                # count root contributions, not ranks: the answer must not
                # depend on the membership size or the drain shrinks change it
                seen = comm.raw.bcast(x if comm.raw.rank == 0 else None, 0)
                roots = comm.raw.allreduce(
                    1 if comm.raw.rank == 0 else 0, SUM)
                return seen + roots
            handles.append(cluster.submit(job, label=f"c{i}"))
    return handles


def drain(cluster):
    handles = submit_stream(cluster)
    cluster.release_jobs()
    return [h.result(60) for h in handles]


# ---------------------------------------------------------------------------
# Act 1: a failure-free stream, with batching
# ---------------------------------------------------------------------------

with Cluster(4, hold_jobs=True) as cluster:
    baseline = drain(cluster)
    groups = cluster.stats["groups"]
    batched = cluster.stats["batched_groups"]

assert len(baseline) == 24
assert batched >= 1, "compatible bcasts/allreduces should coalesce"
assert groups < 24, "24 jobs must drain in fewer than 24 dispatch groups"
print(f"act 1: 24 jobs drained in {groups} groups ({batched} batched)")


# ---------------------------------------------------------------------------
# Act 2: the same stream, with a rank killed mid-stream
# ---------------------------------------------------------------------------

campaign = FaultCampaign([KillOnOp(rank=2, op="bcast", nth=5)], seed=0)
with Cluster(4, hold_jobs=True, faults=campaign, sanitize=True) as chaotic:
    survived = drain(chaotic)
    recoveries = list(chaotic.stats["recoveries"])

assert campaign.kills(), "the campaign must actually kill a rank"
assert survived == baseline, "chaos drain must be bit-identical"
assert recoveries == [2]
print(f"act 2: rank 2 killed mid-stream ({campaign.kills()[0]['op']}); "
      f"drain bit-identical after recovery")


# ---------------------------------------------------------------------------
# Act 3: a spare rank joins at an epoch boundary
# ---------------------------------------------------------------------------

with Cluster(3, spares=1) as elastic:
    before = elastic.submit(lambda comm: comm.size).result(30)
    elastic.add_rank()
    after = elastic.submit(lambda comm: comm.size).result(30)

assert (before, after) == (3, 4)
print(f"act 3: world grew {before} -> {after} at the epoch boundary")

print("OK: cluster service drained, recovered, and grew")
