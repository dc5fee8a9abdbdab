"""Every registered schedule checked by running it.

:func:`~repro.mpi.algorithms.schedule.corun` drives the p generators of one
schedule on one thread and records each rank's ``("send" | "recv", peer)``
sequence (its *fragment*) and result.  It is the one oracle here: no schedule
is written down a second time.  The rewrite passes rest on one fact it pins,
that ``allreduce/reduce_bcast`` is ``reduce/binomial`` followed by
``bcast/binomial``.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

import numpy as np
import pytest

from repro.mpi import CollectiveEngine, CostModel, SUM, algorithms, run_mpi
from repro.mpi.collectives import COLLECTIVES
from repro.mpi.ir import canonical
from repro.mpi.p2p import Mailbox
from tests.oracles import corun

SIZES = (1, 2, 3, 4, 7, 8)

#: every registered algorithm but the neighbour collectives, whose messages
#: follow the communicator's dist graph rather than ``(p, rank, root)``
ALGORITHMS = sorted(
    (op, algo.name) for op in algorithms.collectives()
    for algo in algorithms.algorithms(op) if not op.startswith("neighbor_"))

#: ``(p, roots)``: every root up to 17 ranks, four roots past that
GRID = [(p, tuple(range(p))) for p in range(1, 18)] + [
    (p, tuple(sorted({0, 1, p // 2, p - 1}))) for p in (31, 32, 33, 64)]


#: what rank ``r`` passes in a co-run at ``(p, root)``: its rank as payload,
#: ``SUM`` as operator, unit counts; ``allreduce`` gets a 1-D array of p
#: elements, so that ``allreduce/ring`` runs its ring rather than its fallback
WITNESS = {
    "barrier": lambda p, r, root: (),
    "bcast": lambda p, r, root: (r, root),
    "gather": lambda p, r, root: (r, root),
    "gatherv": lambda p, r, root: (np.array([r]), [1] * p, root),
    "scatter": lambda p, r, root: (list(range(p)), root),
    "scatterv": lambda p, r, root: (np.arange(p), [1] * p, root),
    "allgather": lambda p, r, root: (r,),
    "allgatherv": lambda p, r, root: (np.array([r]), [1] * p),
    "alltoall": lambda p, r, root: (list(range(p)),),
    "alltoallv": lambda p, r, root: (np.arange(p), [1] * p, [1] * p),
    "alltoallw": lambda p, r, root: (list(range(p)),),
    "reduce": lambda p, r, root: (r, SUM, root),
    "allreduce": lambda p, r, root: (np.arange(p) + r, SUM),
    "scan": lambda p, r, root: (r, SUM),
    "exscan": lambda p, r, root: (r, SUM),
}


def _corun(collective: str, name: str, p: int, root: int = 0):
    """``(steps, values)`` of ``collective/name`` under the witness."""
    witness = WITNESS[collective]
    return corun(algorithms.get(collective, name).schedule, p,
                 lambda r: witness(p, r, root))


def _sends(steps) -> int:
    return sum(kind == "send" for per_rank in steps for kind, _ in per_rank)


@lru_cache(maxsize=None)
def _default_values(collective: str, p: int, root: int) -> tuple:
    _, values = _corun(collective, algorithms.default(collective).name, p, root)
    return tuple(canonical(v) for v in values)


@pytest.mark.parametrize("collective,name", ALGORITHMS)
def test_every_send_has_a_matching_recv(collective, name):
    """At every ``(p, root)`` of the grid the schedule runs to the end on
    every rank, the multiset of send channels equals the multiset of receive
    channels, and each rank returns what the default algorithm returns."""
    rooted = "root" in COLLECTIVES[collective].params
    for p, roots in GRID:
        for root in roots if rooted else (0,):
            steps, values = _corun(collective, name, p, root)
            sends = Counter((r, peer) for r in range(p)
                            for kind, peer in steps[r] if kind == "send")
            recvs = Counter((peer, r) for r in range(p)
                            for kind, peer in steps[r] if kind == "recv")
            assert sends == recvs, (p, root)
            assert tuple(canonical(v) for v in values) == \
                _default_values(collective, p, root), (p, root)


def test_reduce_bcast_is_the_exact_composition():
    """The identity fuse_reduce_bcast relies on: the fused allreduce's
    schedule is reduce/binomial followed by bcast/binomial, per rank."""
    for p in SIZES:
        fused, _ = _corun("allreduce", "reduce_bcast", p)
        reduce, _ = _corun("reduce", "binomial", p)
        bcast, _ = _corun("bcast", "binomial", p)
        for rank in range(p):
            assert fused[rank] == reduce[rank] + bcast[rank], (p, rank)


def test_rooted_message_counts():
    """Rooted trees move exactly p-1 messages; the fused allreduce 2(p-1)."""
    for p in SIZES:
        for collective, name in (("bcast", "binomial"), ("bcast", "linear"),
                                 ("reduce", "binomial"), ("reduce", "linear"),
                                 ("gather", "binomial"), ("gather", "linear"),
                                 ("gatherv", "linear"),
                                 ("scatter", "linear"), ("scatter", "binomial"),
                                 ("scatterv", "linear")):
            assert _sends(_corun(collective, name, p)[0]) == p - 1, \
                (collective, name, p)
        assert _sends(_corun("allreduce", "reduce_bcast", p)[0]) == 2 * (p - 1)


def test_recursive_doubling_counts_power_of_two():
    for p in (2, 4, 8):
        steps, _ = _corun("allreduce", "recursive_doubling", p)
        # each of log2(p) rounds is a full pairwise exchange: p sends+recvs
        assert sum(map(len, steps)) == 2 * p * p.bit_length() - 2 * p


def test_nonzero_root_is_a_relabeling():
    """Rooted schedules with root r are the root-0 schedule relabeled."""
    p, root = 8, 3
    shifted, _ = _corun("bcast", "binomial", p, root)
    base, _ = _corun("bcast", "binomial", p)
    for rank in range(p):
        assert [(kind, (peer + root) % p)
                for kind, peer in base[(rank - root) % p]] == shifted[rank]


def _allreduce_times(algo_name: str, width: int) -> list[float]:
    """Virtual per-rank times of a forced-algorithm allreduce at ``width``."""
    def workload(comm):
        comm.allreduce(np.arange(width, dtype=np.int64) + comm.rank, SUM)

    engine = CollectiveEngine(
        CostModel(), overrides={"allreduce": algo_name}, env={})
    res = run_mpi(workload, 4, cost_model=CostModel(), engine=engine)
    assert not res.failed
    return res.times


def test_seed_pinned_eligibility_branch():
    """Ring allreduce's schedule depends on its payload, pinned as seed
    behavior: small payloads (fewer elements than ranks) make forced ring
    fall back to reduce_bcast — bit-identical virtual schedules — while
    large payloads run the genuinely different ring pipeline.  A scalar
    witness would co-run the fallback and pass it off as the ring."""
    small = 3  # fewer elements than the 4 ranks: ring refuses, falls back
    assert _allreduce_times("ring", small) == \
        _allreduce_times("reduce_bcast", small)
    large = 64
    assert _allreduce_times("ring", large) != \
        _allreduce_times("reduce_bcast", large)


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
@pytest.mark.parametrize("collective,name", ALGORITHMS)
def test_fragment_matches_the_deposits_of_a_real_run(collective, name, p,
                                                     monkeypatch):
    """Differential: the co-run's (source, dest) send multiset equals what
    ``Mailbox.deposit`` actually sees when the algorithm is forced."""
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
    steps, _ = _corun(collective, name, p)
    expected = Counter((rank, peer) for rank in range(p)
                       for kind, peer in steps[rank] if kind == "send")
    assert Counter((src, world.index(mb)) for src, mb in seen) == expected
