"""Request batching: coalesce compatible small jobs into shared collectives.

The IR layer's ``batch_bcasts`` pass showed that streams of tiny collectives
are latency-bound: :math:`k` scalar broadcasts cost :math:`k\\cdot\\alpha
\\log p`, one broadcast of a :math:`k`-tuple costs :math:`\\alpha\\log p` plus
negligible extra bandwidth.  The cluster service applies the same idea
*across jobs*: queued jobs with the same collective *shape* (same op kind
and parameters — world size is shared cluster-wide, so "same p" is implied)
are popped as one group and executed as a single shared collective.

Shapes
------
- ``("bcast", root)`` — payloads are tupled at the root; every job's result
  is its element of the received tuple.
- ``("allreduce", op)`` — each job contributes a vector slot; per-rank
  partial reductions are merged elementwise by a derived commutative op
  whose identity is the all-``None`` vector.  Exact (bit-identical across
  membership sizes) for closed discrete domains like ints; floating-point
  jobs see the usual reassociation caveat and should not be batched when
  bitwise reproducibility across shrinks matters.

``"call"`` and ``"epochs"`` jobs have shape ``None`` and never coalesce.
"""

from __future__ import annotations

import functools
from typing import Any, Optional

from repro.mpi.ops import user_op
from repro.service.jobs import ClusterError, Job


def shape_of(job: Job) -> Optional[tuple]:
    """Batching key: jobs with equal non-``None`` shapes may coalesce."""
    if job.kind == "bcast":
        return ("bcast", job.root)
    if job.kind == "allreduce":
        # keyed by op identity: builtin ops are singletons, and two distinct
        # user_op objects are not provably the same function
        return ("allreduce", id(job.op))
    return None


def batch_label(jobs: list[Job]) -> str:
    """Trace label for the shared collective of a coalesced group."""
    if len(jobs) == 1:
        return jobs[0].label
    return "batch:" + "+".join(job.label for job in jobs)


def _merge_one(op, mine: Any, theirs: Any) -> Any:
    if mine is None:
        return theirs
    if theirs is None:
        return mine
    return op(mine, theirs)


def run_batch(comm, jobs: list[Job]) -> list[tuple[str, Any]]:
    """Execute one coalesced group on the job communicator.

    Runs on every service rank (SPMD); returns one ``("ok", value)`` /
    ``("err", exc)`` outcome per job, aligned with ``jobs``.  MPI-level
    failures propagate (the resilient scope owns recovery); only per-job
    *semantic* errors are captured as outcomes.
    """
    raw = comm.raw
    kind = jobs[0].kind
    if kind == "bcast":
        root = jobs[0].root
        if root >= raw.size:
            exc = ClusterError(
                f"bcast root {root} exceeds the current membership "
                f"({raw.size} ranks after shrink); submit roots below the "
                f"minimum membership the cluster may shrink to"
            )
            return [("err", exc)] * len(jobs)
        payload = (tuple(job.payload for job in jobs)
                   if raw.rank == root else None)
        received = comm._guard(lambda: raw.bcast(payload, root))
        return [("ok", value) for value in received]

    if kind == "allreduce":
        op = jobs[0].op
        size = raw.size
        # each rank reduces its strided slice of every job's values; a rank
        # with an empty slice contributes None, absorbed by the merge op
        contribs = []
        for job in jobs:
            mine = list(job.values[raw.rank::size])
            contribs.append(functools.reduce(op, mine) if mine else None)
        merge = user_op(
            lambda a, b: [_merge_one(op, x, y) for x, y in zip(a, b)],
            commutative=op.commutative,
            name=f"batch<{op.name}>",
            identity=[None] * len(jobs),
        )
        merged = comm._guard(lambda: raw.allreduce(contribs, merge))
        return [("ok", value) for value in merged]

    raise ClusterError(f"job kind {kind!r} has no batch execution")
