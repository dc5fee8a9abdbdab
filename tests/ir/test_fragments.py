"""Static algorithm fragments: derived from the schedules that execute."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.mpi import CollectiveEngine, SUM, algorithms, run_mpi
from repro.mpi.algorithms import get as get_algorithm
from repro.mpi.errors import RawUsageError
from repro.mpi.ir import fragment, has_fragment
from repro.mpi.p2p import Mailbox

SIZES = (1, 2, 3, 4, 7, 8)

#: every registered algorithm that has a fragment: all but the neighbour
#: collectives (topology-dependent) and allreduce/ring (payload-dependent)
WITH_FRAGMENT = sorted(
    (op, algo.name) for op in algorithms.collectives()
    for algo in algorithms.algorithms(op) if has_fragment(op, algo.name))


def test_only_the_refused_algorithms_lack_a_fragment():
    missing = {(op, algo.name) for op in algorithms.collectives()
               for algo in algorithms.algorithms(op)} - set(WITH_FRAGMENT)
    assert missing == {("allreduce", "ring"),
                       ("neighbor_alltoall", "direct"),
                       ("neighbor_alltoallv", "direct")}


def test_reduce_bcast_is_the_exact_composition():
    """The identity fuse_reduce_bcast relies on: the fused allreduce's
    schedule is reduce/binomial followed by bcast/binomial, per rank."""
    for p in SIZES:
        for rank in range(p):
            fused = fragment("allreduce", "reduce_bcast", p, rank)
            parts = (fragment("reduce", "binomial", p, rank)
                     + fragment("bcast", "binomial", p, rank))
            assert fused == parts, (p, rank)


@pytest.mark.parametrize("collective,name", WITH_FRAGMENT)
def test_every_send_has_a_matching_recv(collective, name):
    """Fragments are globally consistent: the multiset of send channels
    equals the multiset of recv channels at every communicator size."""
    for p in SIZES:
        sends: Counter = Counter()
        recvs: Counter = Counter()
        for rank in range(p):
            for ev in fragment(collective, name, p, rank):
                assert ev.rank == rank
                if ev.kind == "send":
                    sends[(ev.rank, ev.peer)] += 1
                else:
                    recvs[(ev.peer, ev.rank)] += 1
        assert sends == recvs, (collective, name, p)


def test_rooted_message_counts():
    """Rooted trees move exactly p-1 messages; the fused allreduce 2(p-1)."""
    for p in SIZES:
        for collective, name in (("bcast", "binomial"), ("bcast", "linear"),
                                 ("reduce", "binomial"), ("reduce", "linear"),
                                 ("gather", "binomial"), ("gather", "linear"),
                                 ("gatherv", "linear"),
                                 ("scatter", "linear"), ("scatter", "binomial"),
                                 ("scatterv", "linear")):
            total = sum(sum(1 for e in fragment(collective, name, p, r)
                            if e.kind == "send") for r in range(p))
            assert total == p - 1, (collective, name, p)
        fused = sum(sum(1 for e in fragment("allreduce", "reduce_bcast", p, r)
                        if e.kind == "send") for r in range(p))
        assert fused == 2 * (p - 1)


def test_recursive_doubling_counts_power_of_two():
    for p in (2, 4, 8):
        total = sum(len(fragment("allreduce", "recursive_doubling", p, r))
                    for r in range(p))
        # each of log2(p) rounds is a full pairwise exchange: p sends+recvs
        assert total == 2 * p * p.bit_length() - 2 * p


def test_nonzero_root_is_a_relabeling():
    """Rooted fragments with root r are the root-0 schedule relabeled."""
    p, root = 8, 3
    for rank in range(p):
        shifted = fragment("bcast", "binomial", p, rank, root)
        base = fragment("bcast", "binomial", p, (rank - root) % p)
        assert tuple((e.kind, (e.peer + root) % p) for e in base) == \
            tuple((e.kind, e.peer) for e in shifted)


def test_registry_algorithms_expose_their_fragment():
    algo = get_algorithm("allreduce", "reduce_bcast")
    assert algo.fragment(4, 2) == tuple(
        (e.kind, e.peer) for e in fragment("allreduce", "reduce_bcast", 4, 2))


def test_unmapped_algorithms_are_opaque():
    """Nothing is "unmapped" any more: allgather/ring, which nobody had
    written a fragment for, derives one (p-1 sends and p-1 receives per
    rank); only the topology-dependent neighbour collectives stay opaque."""
    assert has_fragment("allgather", "ring")
    for p in SIZES:
        for rank in range(p):
            kinds = Counter(e.kind for e in fragment("allgather", "ring", p, rank))
            assert kinds == Counter(send=p - 1, recv=p - 1)
    assert not has_fragment("neighbor_alltoall", "direct")
    with pytest.raises(KeyError):
        fragment("neighbor_alltoall", "direct", 4, 0)


def _call(comm, collective: str):
    """One call of ``collective`` with rank-dependent arguments, root 0."""
    p, r = comm.size, comm.rank
    block = np.arange(r + 1)
    args = {
        "barrier": (),
        "bcast": ("x" if r == 0 else None, 0),
        "gather": (r, 0),
        "gatherv": (block, [i + 1 for i in range(p)], 0),
        "scatter": (list(range(p)) if r == 0 else None, 0),
        "scatterv": (np.arange(p), [1] * p, 0),
        "allgather": (r,),
        "allgatherv": (block, [i + 1 for i in range(p)]),
        "alltoall": ([r] * p,),
        "alltoallv": (np.arange(p), [1] * p, [1] * p),
        "alltoallw": ([block] * p,),
        "reduce": (block[:1], SUM, 0),
        "allreduce": (np.arange(2 * p), SUM),
        "scan": (r, SUM),
        "exscan": (r, SUM),
    }[collective]
    getattr(comm, collective)(*args)


@pytest.mark.parametrize("p", (4, 7))
@pytest.mark.parametrize("collective,name", WITH_FRAGMENT)
def test_fragment_matches_the_deposits_of_a_real_run(collective, name, p,
                                                     monkeypatch):
    """Differential: the derived fragment's (source, dest) multiset equals
    what ``Mailbox.deposit`` actually sees when the algorithm is forced."""
    seen: list = []
    world: list = []
    deposit = Mailbox.deposit

    def counting(mailbox, envelope):
        seen.append((envelope.source, mailbox))
        deposit(mailbox, envelope)

    def main(comm):
        if comm.rank == 0:
            world.extend(comm.state.mailboxes[r] for r in range(p))
        _call(comm, collective)

    monkeypatch.setattr(Mailbox, "deposit", counting)
    engine = CollectiveEngine(overrides={collective: name}, env={})
    res = run_mpi(main, p, engine=engine, backend="thread")
    assert not res.failed
    expected = Counter(
        (e.rank, e.peer) for rank in range(p)
        for e in fragment(collective, name, p, rank) if e.kind == "send")
    assert Counter((src, world.index(mb)) for src, mb in seen) == expected


def test_rank_and_root_ranges_are_validated():
    with pytest.raises(RawUsageError, match="rank"):
        fragment("bcast", "binomial", 4, 4)
    with pytest.raises(RawUsageError, match="root"):
        fragment("bcast", "binomial", 4, 0, root=-1)
