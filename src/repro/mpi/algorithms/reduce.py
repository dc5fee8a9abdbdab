"""Reduction algorithms (reduce, allreduce, scan, exscan).

Non-commutative operators always fall back to canonical-rank-order folding:
``reduce`` gathers and folds at the root, ``allreduce`` composes reduce +
bcast — exactly the seed's behavior, independent of the selected algorithm.

``nbytes`` hint: local contribution size (symmetric across ranks by MPI's
matching-count semantics).
"""

from __future__ import annotations

import functools
from typing import Any

import numpy as np

from repro.mpi.algorithms import collective_algorithm
from repro.mpi.algorithms.common import (
    CODE_ALLREDUCE,
    CODE_EXSCAN,
    CODE_REDUCE,
    CODE_SCAN,
    _binomial,
    _check_root,
    _combine,
    _tree_depth,
)
from repro.mpi.algorithms.bcast import bcast_binomial
from repro.mpi.algorithms.gather_scatter import gather_binomial
from repro.mpi.algorithms.schedule import Recv, Send, Tag
from repro.mpi.ops import Op


def _cost_reduce_binomial(p, nbytes, cm):
    return _tree_depth(p) * (cm.alpha + nbytes * cm.beta + 2 * cm.overhead)


def _cost_reduce_linear(p, nbytes, cm):
    if p == 1:
        return 0.0
    return cm.alpha + nbytes * cm.beta + p * cm.overhead


def _cost_recursive_doubling(p, nbytes, cm):
    if p == 1:
        return 0.0
    p2 = 1 << (p.bit_length() - 1)
    rounds = p2.bit_length() - 1
    if p != p2:
        rounds += 2  # pre-fold and post-distribute for the remainder ranks
    return rounds * (cm.alpha + nbytes * cm.beta + 2 * cm.overhead)


def _cost_reduce_bcast(p, nbytes, cm):
    return 2 * _tree_depth(p) * (cm.alpha + nbytes * cm.beta + 2 * cm.overhead)


def _cost_allreduce_ring(p, nbytes, cm):
    if p == 1:
        return 0.0
    # Arrays too short to shard (fewer elements than ranks, ~8-byte words)
    # take the reduce+bcast fallback, so cost that path instead.
    if nbytes < p * 8:
        return _cost_reduce_bcast(p, nbytes, cm)
    # reduce-scatter + allgather, each p−1 rounds of chunks; array_split
    # rounds chunk sizes up to whole ⌈w/p⌉-word blocks, which matters when
    # p does not divide the element count.
    chunk = 8 * -(-nbytes // (8 * p))
    return 2 * (p - 1) * (cm.alpha + 2 * cm.overhead + chunk * cm.beta)


def _cost_scan_doubling(p, nbytes, cm):
    # ⌈log₂ p⌉ rounds, but buffered sends overlap them down to tree depth.
    return _tree_depth(p) * (cm.alpha + nbytes * cm.beta + 2 * cm.overhead)


@collective_algorithm("reduce", "binomial", default=True,
                      cost=_cost_reduce_binomial,
                      description="binomial combining tree (commutative ops); "
                                  "gather + ordered fold otherwise")
def reduce_binomial(p: int, r: int, value: Any, op: Op, root: int):
    _check_root(p, root)
    if not op.commutative:
        return (yield from _reduce_ordered(p, r, value, op, root))
    yield Tag(CODE_REDUCE)
    parent, children = _binomial(p, (r - root) % p)
    acc = value
    for child in reversed(children):
        acc = _combine(op, acc, (yield Recv((child + root) % p)))
    if parent is not None:
        yield Send((parent + root) % p, acc)
        return None
    return acc


@collective_algorithm("reduce", "linear", cost=_cost_reduce_linear,
                      description="root receives every contribution and folds "
                                  "in rank order (valid for non-commutative "
                                  "ops too)")
def reduce_linear(p: int, r: int, value: Any, op: Op, root: int):
    _check_root(p, root)
    yield Tag(CODE_REDUCE)
    if r != root:
        yield Send(root, value)
        return None
    items: list = [None] * p
    items[r] = value
    for src in range(p):
        if src != r:
            items[src] = yield Recv(src)
    return functools.reduce(functools.partial(_combine, op), items)


def _reduce_ordered(p: int, r: int, value: Any, op: Op, root: int):
    """Rank-ordered fold via binomial gather (non-commutative fallback)."""
    items = yield from gather_binomial(p, r, value, root)
    if r != root:
        return None
    return functools.reduce(functools.partial(_combine, op), items)


@collective_algorithm("allreduce", "recursive_doubling", default=True,
                      cost=_cost_recursive_doubling,
                      description="recursive doubling with non-power-of-two "
                                  "folding")
def allreduce_recursive_doubling(p: int, r: int, value: Any, op: Op):
    if not op.commutative:
        return (yield from allreduce_reduce_bcast(p, r, value, op))
    yield Tag(CODE_ALLREDUCE)
    p2 = 1 << (p.bit_length() - 1)
    rem = p - p2
    acc = value
    new_rank = -1
    if r < 2 * rem:
        if r % 2 == 1:
            yield Send(r - 1, acc)
        else:
            other = yield Recv(r + 1)
            acc = _combine(op, acc, other)
            new_rank = r // 2
    else:
        new_rank = r - rem
    if new_rank >= 0:
        mask = 1
        while mask < p2:
            partner_new = new_rank ^ mask
            partner = partner_new * 2 if partner_new < rem else partner_new + rem
            yield Send(partner, acc)
            other = yield Recv(partner)
            acc = _combine(op, acc, other)
            mask <<= 1
    if r < 2 * rem:
        if r % 2 == 0:
            yield Send(r + 1, acc)
        else:
            acc = yield Recv(r - 1)
    return acc


@collective_algorithm("allreduce", "reduce_bcast", cost=_cost_reduce_bcast,
                      description="binomial reduce to rank 0 followed by a "
                                  "binomial broadcast of the result")
def allreduce_reduce_bcast(p: int, r: int, value: Any, op: Op):
    result = yield from reduce_binomial(p, r, value, op, 0)
    return (yield from bcast_binomial(p, r, result, 0))


@collective_algorithm("allreduce", "ring", cost=_cost_allreduce_ring,
                      description="ring reduce-scatter + ring allgather over "
                                  "p chunks; bandwidth-optimal for large 1-D "
                                  "arrays")
def allreduce_ring(p: int, r: int, value: Any, op: Op):
    # The chunked schedule needs a splittable, elementwise-combinable buffer;
    # the eligibility test uses only symmetric facts (dtype/shape must match
    # across ranks per MPI semantics), so all ranks take the same branch.
    if not (op.commutative and isinstance(value, np.ndarray)
            and value.ndim == 1 and len(value) >= p):
        return (yield from allreduce_reduce_bcast(p, r, value, op))
    yield Tag(CODE_ALLREDUCE)
    if p == 1:
        return value
    chunks = [c.copy() for c in np.array_split(value, p)]
    right, left = (r + 1) % p, (r - 1) % p
    # Reduce-scatter: after p−1 steps rank r owns the full reduction of
    # chunk (r+1) mod p.
    for i in range(p - 1):
        yield Send(right, chunks[(r - i) % p])
        other = yield Recv(left)
        idx = (r - i - 1) % p
        chunks[idx] = _combine(op, chunks[idx], other)
    # Allgather: circulate the reduced chunks.
    for i in range(p - 1):
        yield Send(right, chunks[(r + 1 - i) % p])
        other = yield Recv(left)
        chunks[(r - i) % p] = np.asarray(other)
    return np.concatenate(chunks)


def _prefix_doubling(p: int, r: int, value: Any, op: Op, code: int):
    """Hillis–Steele doubling rounds: this rank's ``(inclusive, exclusive)``
    prefix reductions (``exclusive`` is ``None`` on rank 0)."""
    yield Tag(code)
    exclusive: Any = None
    acc = value
    mask = 1
    while mask < p:
        dst, src = r + mask, r - mask
        if dst < p:
            yield Send(dst, acc)
        if src >= 0:
            other = yield Recv(src)
            exclusive = (other if exclusive is None
                         else _combine(op, other, exclusive))
            acc = _combine(op, other, acc)
        mask <<= 1
    return acc, exclusive


@collective_algorithm("scan", "doubling", default=True,
                      cost=_cost_scan_doubling,
                      description="Hillis–Steele inclusive prefix doubling")
def scan_doubling(p: int, r: int, value: Any, op: Op):
    return (yield from _prefix_doubling(p, r, value, op, CODE_SCAN))[0]


@collective_algorithm("exscan", "doubling", default=True,
                      cost=_cost_scan_doubling,
                      description="Hillis–Steele exclusive prefix doubling; "
                                  "rank 0 gets the operator identity")
def exscan_doubling(p: int, r: int, value: Any, op: Op):
    _, result = yield from _prefix_doubling(p, r, value, op, CODE_EXSCAN)
    if r == 0:
        if op.identity is None:
            return None
        if isinstance(value, np.ndarray):
            return np.full_like(value, op.identity)
        return type(value)(op.identity) if not isinstance(value, bool) else op.identity
    return result
