"""``repro.service`` — a persistent cluster service over the MPI runtime.

One :class:`Cluster` owns a thread-backend machine's worth of ranks across
many jobs: admission-controlled queueing, one job communicator per
membership generation, cross-job request batching, and elastic membership
(ULFM shrink on failure, spare admission on :meth:`Cluster.add_rank`) with
buddy-checkpointed recovery.  See :mod:`repro.service.cluster` for the
architecture overview and DESIGN.md §15 for the design rationale.
"""

from repro.service.batching import batch_label, run_batch, shape_of
from repro.service.cluster import Cluster, ClusterComm
from repro.service.jobs import (
    ClusterError,
    ClusterSaturated,
    Job,
    JobHandle,
    JobQueue,
)

__all__ = [
    "Cluster", "ClusterComm",
    "ClusterError", "ClusterSaturated",
    "Job", "JobHandle", "JobQueue",
    "batch_label", "run_batch", "shape_of",
]
