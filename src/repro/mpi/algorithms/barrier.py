"""Barrier algorithms."""

from __future__ import annotations

from repro.mpi.algorithms import collective_algorithm
from repro.mpi.algorithms.common import CODE_BARRIER, _binomial, _ceil_log2, _tree_depth
from repro.mpi.algorithms.schedule import Recv, Send, Tag


def _cost_dissemination(p, nbytes, cm):
    # Every rank really does send+receive in each of the ⌈log₂ p⌉ rounds.
    return _ceil_log2(p) * (cm.alpha + 2 * cm.overhead)


def _cost_tree(p, nbytes, cm):
    # gather-to-0 then broadcast-from-0, both binomial: two tree-depth sweeps.
    return 2 * _tree_depth(p) * (cm.alpha + 2 * cm.overhead)


@collective_algorithm("barrier", "dissemination", default=True,
                      cost=_cost_dissemination,
                      description="⌈log₂ p⌉ symmetric rounds; every rank "
                                  "sends and receives each round")
def barrier_dissemination(p: int, r: int):
    yield Tag(CODE_BARRIER)
    k = 1
    while k < p:
        yield Send((r + k) % p, None)
        yield Recv((r - k) % p)
        k <<= 1


@collective_algorithm("barrier", "tree", cost=_cost_tree,
                      description="binomial gather of empty tokens to rank 0 "
                                  "followed by a binomial release broadcast")
def barrier_tree(p: int, r: int):
    yield Tag(CODE_BARRIER)
    # Converge: each rank collects a token per subtree, reports upward, and
    # waits for the release from the parent it reported to; then it forwards
    # the release down.  Converge messages flow child→parent and releases
    # parent→child, so one tag cannot mismatch across the two sweeps.
    parent, children = _binomial(p, r)
    for child in reversed(children):
        yield Recv(child)
    if parent is not None:
        yield Send(parent, None)
        yield Recv(parent)
    for child in children:
        yield Send(child, None)
