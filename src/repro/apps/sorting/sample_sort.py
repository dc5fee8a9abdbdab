"""Distributed sample sort in five binding styles (paper Fig. 7/8, Table I).

All implementations share the helpers in
:mod:`repro.apps.sorting.common` (the paper's methodology) and differ only in
the binding-specific communication code — which is what Table I counts and
Fig. 8 times.
"""

from __future__ import annotations

import numpy as np

from repro.apps.sorting import common
from repro.bindings import boost_mpi, mpl, rwth_mpi
from repro.core import Communicator, op, send_buf, send_counts
from repro.mpi.context import RawComm


def sample_sort_mpi(comm: RawComm, data: np.ndarray) -> np.ndarray:
    """Plain-MPI style: every count and displacement handled by hand."""
    p = comm.size
    rank = comm.rank
    num_samples = common.num_samples_for(p)
    lsamples = common.draw_samples(data, num_samples, rank)
    sample_blocks = comm.allgather(lsamples)
    gsamples = common.local_sort(comm, np.concatenate(sample_blocks))
    splitters = common.select_splitters(gsamples, p)
    send_data, scounts = common.build_buckets(comm, data, splitters)
    rcounts = comm.alltoall(list(scounts))
    rdispls = [0] * p
    for i in range(1, p):
        rdispls[i] = rdispls[i - 1] + rcounts[i - 1]
    recv = np.empty(rdispls[-1] + rcounts[-1], dtype=data.dtype)
    recv[:] = comm.alltoallv(send_data, scounts, rcounts)
    return common.local_sort(comm, recv)


def sample_sort_boost(comm: boost_mpi.communicator,
                      data: np.ndarray) -> np.ndarray:
    """Boost.MPI style.

    Boost.MPI has no ``alltoallv`` (paper §II); the bucket exchange goes
    through ``all_to_all`` of one vector per destination, which Boost
    serializes implicitly.
    """
    p = comm.size()
    rank = comm.rank()
    raw = comm.raw
    num_samples = common.num_samples_for(p)
    lsamples = common.draw_samples(data, num_samples, rank)
    gsamples = boost_mpi.all_gather(comm, lsamples)
    gsamples = common.local_sort(raw, np.concatenate(gsamples))
    splitters = common.select_splitters(gsamples, p)
    send_data, scounts = common.build_buckets(raw, data, splitters)
    offsets = np.concatenate(([0], np.cumsum(scounts))).astype(int)
    vectors = [send_data[offsets[i]: offsets[i + 1]] for i in range(p)]
    received = boost_mpi.all_to_all(comm, vectors)
    recv = np.concatenate(received)
    return common.local_sort(raw, recv)


def sample_sort_rwth(comm: rwth_mpi.Communicator,
                     data: np.ndarray) -> np.ndarray:
    """RWTH-MPI style: the varying overload exchanges receive counts internally."""
    p = comm.size
    raw = comm.raw
    num_samples = common.num_samples_for(p)
    lsamples = common.draw_samples(data, num_samples, comm.rank)
    gsamples = comm.all_gather(lsamples)
    gsamples = common.local_sort(raw, np.concatenate(gsamples))
    splitters = common.select_splitters(gsamples, p)
    send_data, scounts = common.build_buckets(raw, data, splitters)
    recv = comm.all_to_all_varying(send_data, scounts)
    return common.local_sort(raw, recv)


def sample_sort_mpl(comm: mpl.communicator, data: np.ndarray) -> np.ndarray:
    """MPL style: explicit layouts for both directions of the exchange."""
    p = comm.size()
    raw = comm._raw
    num_samples = common.num_samples_for(p)
    lsamples = common.draw_samples(data, num_samples, comm.rank())
    gsamples = comm.allgather(lsamples)
    gsamples = common.local_sort(raw, np.concatenate(gsamples))
    splitters = common.select_splitters(gsamples, p)
    send_data, scounts = common.build_buckets(raw, data, splitters)
    rcounts = comm.alltoall(list(scounts))
    send_layouts = []
    for c in scounts:
        send_layouts.append(mpl.contiguous_layout(c))
    recv_layouts = []
    for c in rcounts:
        recv_layouts.append(mpl.contiguous_layout(c))
    recv = comm.alltoallv(send_data, mpl.layouts(send_layouts),
                          mpl.layouts(recv_layouts))
    return common.local_sort(raw, recv)


def sample_sort_kamping(comm: Communicator, data: np.ndarray) -> np.ndarray:
    """KaMPIng style (paper Fig. 7): counts inferred, results by value."""
    p = comm.size
    num_samples = common.num_samples_for(p)
    lsamples = common.draw_samples(data, num_samples, comm.rank)
    gsamples = comm.allgather(send_buf(lsamples))
    gsamples = common.local_sort(comm.raw, gsamples)
    splitters = common.select_splitters(gsamples, p)
    send_data, scounts = common.build_buckets(comm.raw, data, splitters)
    recv = comm.alltoallv(send_buf(send_data), send_counts(scounts))
    return common.local_sort(comm.raw, recv)


def sample_sort_resilient(comm, data: np.ndarray, *, max_attempts: int = 9):
    """Fault-tolerant sample sort over a ULFM-extended communicator.

    Runs :func:`sample_sort_kamping` as one epoch of a
    :class:`~repro.plugins.resilience.ResilientScope`: each rank's input
    block is buddy-checkpointed before the sort starts, so when a rank dies
    mid-sort (even mid-collective) the survivors shrink, the victim's input
    is adopted by its checkpoint buddy, and the sort restarts on the shrunk
    communicator with *all* of the original data.  Returns ``(comm, block)``
    — the surviving communicator and this rank's sorted block; blocks
    concatenated in rank order equal the sorted full input, exactly as in a
    failure-free run.
    """
    from repro.plugins.resilience import run_resilient

    def epoch(c, shards, _epoch):
        local = np.concatenate([np.asarray(v) for _, v in shards])
        block = sample_sort_kamping(c, local)
        return [(("sorted", c.raw.world_rank), block)]

    scope = run_resilient(comm, epoch, [(("input", comm.raw.world_rank),
                                         np.asarray(data))],
                          label="sample-sort", max_attempts=max_attempts)
    (_, block), = scope.shards
    return scope.comm, block


#: binding name → (implementation, communicator wrapper factory)
SAMPLE_SORT_IMPLS = {
    "MPI": (sample_sort_mpi, lambda raw: raw),
    "Boost.MPI": (sample_sort_boost, boost_mpi.communicator),
    "RWTH-MPI": (sample_sort_rwth, rwth_mpi.Communicator),
    "MPL": (sample_sort_mpl, mpl.communicator),
    "KaMPIng": (sample_sort_kamping, Communicator),
}


def sort_checked(raw: RawComm, data: np.ndarray, binding: str) -> np.ndarray:
    """Run one binding's sample sort and return the rank's sorted block."""
    impl, wrap = SAMPLE_SORT_IMPLS[binding]
    return impl(wrap(raw), data)
