"""Rewrite passes over recorded epochs.

A pass is a function ``(Epoch) -> PassResult`` that rewrites the epoch in
place.  Every pass obeys three invariants the replay tests enforce:

1. **Value preservation** — replaying the rewritten graph produces values
   bit-identical (:func:`repro.mpi.ir.nodes.values_equal`) to the recorded
   run.  Rewrites fire only when this is *provable from the recording*: the
   fusion pass, for example, requires the recorded reduce and bcast to have
   run the binomial schedules from root 0, because
   ``allreduce[reduce_bcast]`` is by construction that exact composition —
   same combine order, same message schedule, so even float rounding is
   identical.
2. **SPMD consistency** — a rewrite touches a collective instance on *all*
   member ranks or none of them, keyed by the ``(comm, seq)`` alignment.
3. **No regressions** — every rewrite strictly reduces raw op count and
   never increases payload bytes (scalar payloads are packed as scalar
   lists, which the byte model sizes identically to the separate messages).

Provenance: every node a pass creates carries ``ir_pass=<pass name>``, which
the replayer stamps onto the trace spans so Chrome traces show which op came
from which rewrite.

Pass order matters and the one pipeline's order is deliberate: collective
fusions first (they need the raw recorded shapes), then message coalescing,
then ring recognition, then wait reordering (pure scheduling, never changes
shapes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from typing import (Callable, Dict, Hashable, Iterator, List, Optional,
                    Sequence, Tuple)

import numpy as np

from repro.mpi.ir.nodes import CommOp, Epoch, values_equal
from repro.mpi.p2p import Status


@dataclass
class PassResult:
    """Outcome of one pass: how many rewrites fired, and where."""

    name: str
    rewrites: int = 0
    details: List[str] = field(default_factory=list)

    def note(self, detail: str) -> None:
        self.rewrites += 1
        self.details.append(detail)


# -- the rewrite driver: one replace, one run finder, one fixpoint ------------
#
# A rewriting pass is a *match* (which nodes, on which ranks) plus a *build*
# (what the one new node is); everything else lives here, once.

#: one collective instance: world rank -> (position in ``ops[w]``, node)
Instance = Dict[int, Tuple[int, CommOp]]


def _is_scalar(x) -> bool:
    return isinstance(x, (bool, int, float, np.integer, np.floating))


def _adjacent(nodes: Sequence[CommOp], positions: Sequence[int]) -> bool:
    """True when ``positions`` ascend and every node strictly between two of
    them is local compute (safe to treat the nodes there as one run)."""
    return all(p < q and all(n.kind == "local" for n in nodes[p + 1:q])
               for p, q in zip(positions, positions[1:]))


def _replace(epoch: Epoch, w: int, positions: Sequence[int], name: str,
             **fields) -> None:
    """Replace the nodes at ascending ``positions`` of world rank ``w`` by one
    node at the first position — the only place in this module that builds a
    node, deletes one or rewrites ``deps``.

    The new node gets a fresh ``idx``, the first replaced node's ``rank``,
    ``kind``, ``comm`` and ``seq`` (so ``(comm, seq)`` alignment survives),
    ``ir_pass=name`` and ``fields`` (``op``, ``args``, ``payload``,
    ``result``).  Its ``deps`` are the union of the replaced nodes' deps
    *minus the replaced indices* — a node cannot depend on what it absorbed,
    let alone on itself — and every consumer of a replaced node is remapped
    onto it.  Callers replace adjacent nodes only (:func:`_adjacent`), so no
    producer lies between the positions and every edge still points backwards.
    """
    nodes = epoch.ops[w]
    old = [nodes[pos] for pos in positions]
    gone = {n.idx for n in old}
    new = CommOp(
        idx=epoch.alloc_idx(w), rank=old[0].rank, kind=old[0].kind,
        comm=old[0].comm, seq=old[0].seq, ir_pass=name,
        deps=tuple(sorted({d for n in old for d in n.deps} - gone)), **fields)
    nodes[positions[0]] = new
    for pos in reversed(positions[1:]):
        del nodes[pos]
    for n in nodes:
        if not gone.isdisjoint(n.deps):
            n.deps = tuple(sorted({new.idx if d in gone else d
                                   for d in n.deps}))


def _runs(epoch: Epoch, *ops: str
          ) -> Iterator[Tuple[Hashable, List[Tuple[int, Instance]]]]:
    """Yield ``(comm, [(seq, instance), ...])`` for every maximal run of
    collective instances that a pattern over ``ops`` may treat as one — the
    only all-ranks-or-none walk in this module.

    In a run, ``seq`` numbers are consecutive on ``comm``; every node of every
    instance was recorded (no pass touched it) and names an op in ``ops``;
    every instance is observed on *every* member rank (invariant 2); and —
    checked last, because it walks each rank's node list — neighbouring
    instances are in program order and separated by local compute only, on
    every rank.  A run that breaks on adjacency alone starts the next one.
    """
    by_comm: Dict[Hashable, Dict[int, Instance]] = {}
    for (comm, seq), inst in epoch.instances().items():
        by_comm.setdefault(comm, {})[seq] = inst
    for comm, members in epoch.members.items():
        insts, everyone = by_comm.get(comm, {}), set(members)
        run: List[Tuple[int, Instance]] = []
        for seq in sorted(insts):
            inst = insts[seq]
            ok = (all(n.op in ops and n.ir_pass is None
                      for _, n in inst.values())
                  and inst.keys() == everyone)
            if run and not (ok and seq == run[-1][0] + 1 and all(
                    _adjacent(epoch.ops[w], (run[-1][1][w][0], pos))
                    for w, (pos, _) in inst.items())):
                yield comm, run
                run = []
            if ok:
                run.append((seq, inst))
        if run:
            yield comm, run


def _pairs(epoch: Epoch, first: str, second: str
           ) -> Iterator[Tuple[Hashable, int, Instance, Instance]]:
    """Yield ``(comm, seq, a, b)`` for neighbours of one :func:`_runs` run —
    instance ``a`` of ``first`` at ``seq``, ``b`` of ``second`` at ``seq + 1``
    — where on every rank nothing but ``b``'s node consumes ``a``'s result."""
    for comm, run in _runs(epoch, first, second):
        for (seq, a), (_, b) in zip(run, run[1:]):
            if (all(n.op == first for _, n in a.values())
                    and all(n.op == second for _, n in b.values())
                    and all(n is b[w][1]
                            for w, (_, node_a) in a.items()
                            for n in epoch.ops[w] if node_a.idx in n.deps)):
                yield comm, seq, a, b


def _to_fixpoint(epoch: Epoch, name: str,
                 rewrite_one: Callable[[Epoch], Optional[str]]) -> PassResult:
    """Run ``rewrite_one`` — apply the first match, return its ``details``
    line, or ``None`` when nothing matches — until nothing does.  Positions
    go stale after a rewrite, so every round rescans."""
    result = PassResult(name)
    while (detail := rewrite_one(epoch)) is not None:
        result.note(detail)
    return result


# -- pass: fuse reduce(root=0) + bcast(root=0) -> allreduce[reduce_bcast] ----


def fuse_reduce_bcast(epoch: Epoch) -> PassResult:
    """Fuse a reduce-to-0 immediately rebroadcast from 0 into one allreduce.

    Fires only when (a) both recorded collectives ran the binomial schedule
    from root 0 — the exact composition ``allreduce[reduce_bcast]`` replays,
    so the combine order (and therefore float bit patterns) is unchanged —
    (b) the bcast's payload at the root is bit-identical to the reduce's
    result there (the program really did rebroadcast the reduction), and
    (c) nothing else consumed the intermediate reduce result.
    """
    return _to_fixpoint(epoch, "fuse_reduce_bcast", _fuse_one_reduce_bcast)


def _fuse_one_reduce_bcast(epoch: Epoch) -> Optional[str]:
    for comm, seq, a, b in _pairs(epoch, "reduce", "bcast"):
        if not all(n.args.get("root") == 0
                   and n.args.get("algorithm") == "binomial"
                   for inst in (a, b) for _, n in inst.values()):
            continue
        red_ops = {getattr(n.args.get("op"), "name", None)
                   for _, n in a.values()}
        if len(red_ops) != 1 or None in red_ops:
            continue
        # the rebroadcast value must be the reduction's result
        root_world = epoch.members[comm][0]
        if not values_equal(a[root_world][1].result, b[root_world][1].payload):
            continue
        for w, (pos_a, node_a) in a.items():
            pos_b, node_b = b[w]
            _replace(epoch, w, (pos_a, pos_b), "fuse_reduce_bcast",
                     op="allreduce",
                     args={"op": node_a.args["op"],
                           "algorithm": "reduce_bcast"},
                     payload=node_a.payload, result=node_b.result)
        return (f"comm={comm!r} seq={seq}: reduce+bcast -> "
                f"allreduce[reduce_bcast]")
    return None


# -- pass: batch consecutive same-root bcasts into one list bcast ------------


def batch_bcasts(epoch: Epoch) -> PassResult:
    """Merge a run of k >= 2 consecutive same-root scalar bcasts into one
    bcast of a k-element scalar list (byte-neutral: the size model charges a
    scalar list exactly the sum of its elements; k trees become one)."""
    return _to_fixpoint(epoch, "batch_bcasts", _batch_one_bcast_run)


def _batchable_root(item: Tuple[int, Instance]) -> Optional[int]:
    """The one root of an instance of scalar binomial bcasts, else ``None``."""
    nodes = [n for _, n in item[1].values()]
    roots = {n.args.get("root") for n in nodes}
    if len(roots) == 1 and all(
            _is_scalar(n.result) and n.args.get("algorithm") == "binomial"
            for n in nodes):
        return roots.pop()
    return None


def _batch_one_bcast_run(epoch: Epoch) -> Optional[str]:
    for comm, run in _runs(epoch, "bcast"):
        for root, group in groupby(run, key=_batchable_root):
            batch = list(group)
            if root is None or len(batch) < 2:
                continue
            for w in epoch.members[comm]:
                entries = [inst[w] for _, inst in batch]
                nodes = [n for _, n in entries]
                _replace(epoch, w, [pos for pos, _ in entries], "batch_bcasts",
                         op="bcast",
                         args={"root": root, "algorithm": "binomial",
                               "batched": len(batch)},
                         payload=([n.payload for n in nodes]
                                  if nodes[0].rank == root else None),
                         result=[n.result for n in nodes])
            return (f"comm={comm!r} seqs={batch[0][0]}..{batch[-1][0]}: "
                    f"{len(batch)} bcasts -> 1 batched bcast")
    return None


# -- pass: fuse the alltoall count exchange into its alltoallv ---------------


def fuse_count_exchange(epoch: Epoch) -> PassResult:
    """Collapse ``rcounts = alltoall(scounts); alltoallv(buf, scounts,
    rcounts)`` into a single alltoall of array blocks.

    This is the boilerplate the wrapped layer's count inference generates
    (and raw-style code writes by hand): a p-scalar alltoall whose only
    purpose is to size the immediately following alltoallv.  Sending the
    blocks as objects needs no recv counts at all, so the count exchange —
    8·p bytes and one collective per rank — disappears entirely; this is the
    strict byte reduction ``bench_ir`` measures on sample sort and BFS.
    """
    return _to_fixpoint(epoch, "fuse_count_exchange",
                        _fuse_one_count_exchange)


def _fuse_one_count_exchange(epoch: Epoch) -> Optional[str]:
    for comm, seq, a, b in _pairs(epoch, "alltoall", "alltoallv"):
        p = len(epoch.members[comm])
        # the alltoall moved exactly the alltoallv's count vectors
        if not all(isinstance(node_a.payload, (list, tuple))
                   and len(node_a.payload) == p
                   and all(_is_scalar(c) for c in node_a.payload)
                   and values_equal(node_a.payload,
                                    b[w][1].args.get("sendcounts"))
                   and values_equal(node_a.result,
                                    b[w][1].args.get("recvcounts"))
                   for w, (_, node_a) in a.items()):
            continue
        for w, (pos_a, node_a) in a.items():
            pos_b, node_b = b[w]
            scounts = [int(c) for c in node_a.payload]
            splits = np.split(np.asarray(node_b.payload),
                              np.cumsum(scounts)[:-1])
            _replace(epoch, w, (pos_a, pos_b), "fuse_count_exchange",
                     op="alltoall",
                     args={"algorithm": node_a.args.get("algorithm"),
                           "post": "concat"},
                     payload=[np.ascontiguousarray(blk) for blk in splits],
                     result=node_b.result)
        return (f"comm={comm!r} seq={seq}: count exchange folded "
                f"into alltoall of blocks (saves {8 * p}B/rank)")
    return None


# -- pass: coalesce runs of small same-peer same-tag sends -------------------


def coalesce_sends(epoch: Epoch) -> PassResult:
    """Pack k >= 2 consecutive scalar sends on one (source, dest, tag)
    channel — and the receiver's matching k consecutive recvs — into a single
    packed message (a scalar list: byte-neutral, 2k ops become 2).

    Fires only when the run is the channel's *entire* traffic in the epoch,
    so FIFO pairing between the packed send and the packed recv is exact by
    construction.
    """
    return _to_fixpoint(epoch, "coalesce_sends", _coalesce_one_channel)


def _coalesce_one_channel(epoch: Epoch) -> Optional[str]:
    for comm, members in epoch.members.items():
        #: (source, dest, tag), comm-local -> ([(pos, send)], [(pos, recv)])
        channels: Dict[Tuple[int, int, int], Tuple[list, list]] = {}
        for local, w in enumerate(members):
            for pos, n in enumerate(epoch.ops[w]):
                if n.comm != comm or n.ir_pass is not None or n.kind != "p2p":
                    continue
                if n.op == "send" and _is_scalar(n.payload):
                    key = (local, n.args["dest"], n.args["tag"])
                    channels.setdefault(key, ([], []))[0].append((pos, n))
                elif n.op == "recv":
                    src = n.args.get("source")
                    tag = n.args.get("tag")
                    if src is None or src < 0 or tag is None or tag < 0:
                        continue  # wildcard: FIFO pairing not provable
                    key = (src, local, tag)
                    channels.setdefault(key, ([], []))[1].append((pos, n))
        for (src, dst, tag), (sends, recvs) in channels.items():
            k = len(sends)
            if k < 2 or len(recvs) != k:
                continue
            if not all(isinstance(n.result, tuple) and _is_scalar(n.result[0])
                       for _, n in recvs):
                continue
            # runs must be contiguous on both sides (the key names both ends)
            sw, rw = members[src], members[dst]
            s_positions = [pos for pos, _ in sends]
            r_positions = [pos for pos, _ in recvs]
            if not (_adjacent(epoch.ops[sw], s_positions)
                    and _adjacent(epoch.ops[rw], r_positions)):
                continue
            # payloads must line up FIFO with the recorded receipts
            if not all(values_equal(sn.payload, rn.result[0])
                       for (_, sn), (_, rn) in zip(sends, recvs)):
                continue
            packed = [n.payload for _, n in sends]
            # recvs first: on a self-channel they follow the sends on one
            # rank, and replacing them leaves the send positions valid
            _replace(epoch, rw, r_positions, "coalesce_sends", op="recv",
                     args={"source": src, "tag": tag, "packed": k,
                           "matched_source": src, "matched_tag": tag},
                     result=(packed, Status(src, tag, 8 * k)))
            _replace(epoch, sw, s_positions, "coalesce_sends", op="send",
                     args={"dest": dst, "tag": tag, "packed": k},
                     payload=packed)
            return (f"comm={comm!r} channel {src}->{dst} tag={tag}: "
                    f"{k} scalar messages packed into 1")
    return None


# -- pass: recognize shift rings as sendrecv ---------------------------------


def ring_to_sendrecv(epoch: Epoch) -> PassResult:
    """Rewrite an aligned ring shift — every rank r sends to (r+d) mod p and
    then receives from (r-d) mod p with one tag — into one ``sendrecv`` per
    rank (p combined ops instead of 2p; the collective shape of a ring step).
    """
    return _to_fixpoint(epoch, "ring_to_sendrecv", _ring_one_round)


def _ring_one_round(epoch: Epoch) -> Optional[str]:
    for comm, members in epoch.members.items():
        p = len(members)
        if p < 2:
            continue
        # per comm-local rank: (pos, pos, send, recv) of every recorded send
        # whose next non-local node is a same-tag recv from a named source
        candidates: List[List[Tuple[int, int, CommOp, CommOp]]] = []
        for w in members:
            nodes = epoch.ops[w]
            found = []
            for i, n in enumerate(nodes):
                if (n.kind != "p2p" or n.op != "send" or n.comm != comm
                        or n.ir_pass is not None):
                    continue
                for j in range(i + 1, len(nodes)):
                    m = nodes[j]
                    if m.kind == "local":
                        continue
                    if (m.kind == "p2p" and m.op == "recv" and m.comm == comm
                            and m.ir_pass is None
                            and m.args.get("source", -1) >= 0
                            and m.args.get("tag") == n.args.get("tag")):
                        found.append((i, j, n, m))
                    break
            candidates.append(found)
        for t in range(min(len(found) for found in candidates)):
            ds = set()
            tags = set()
            for local in range(p):
                _, _, sn, rn = candidates[local][t]
                ds.add((sn.args["dest"] - local) % p)
                ds.add((local - rn.args["source"]) % p)
                tags.add(sn.args["tag"])
            if len(ds) != 1 or 0 in ds or len(tags) != 1:
                continue
            d = ds.pop()
            # the received value must provably be the ring predecessor's send
            if not all(
                values_equal(candidates[local][t][3].result[0],
                             candidates[(local - d) % p][t][2].payload)
                for local in range(p)
            ):
                continue
            for local, w in enumerate(members):
                i, j, sn, rn = candidates[local][t]
                _replace(epoch, w, (i, j), "ring_to_sendrecv", op="sendrecv",
                         args={"dest": sn.args["dest"],
                               "source": rn.args["source"],
                               "sendtag": sn.args["tag"],
                               "recvtag": rn.args["tag"],
                               "matched_source": rn.args["matched_source"],
                               "matched_tag": rn.args["matched_tag"]},
                         payload=sn.payload, result=rn.result)
            return f"comm={comm!r}: ring shift d={d} -> {p} sendrecv ops"
    return None


# -- pass: push waits past independent local compute -------------------------


def overlap_waits(epoch: Epoch) -> PassResult:
    """Move the completion of irecv/ibarrier past immediately following local
    compute, so the transfer overlaps the computation.  Pure reordering: the
    compute charges are recorded constants, so no node's value can change —
    only the virtual-time critical path shrinks.

    Waits of send-side non-blocking collectives are deliberately left alone:
    their progress engines send on advance, so delaying the wait would delay
    *other* ranks.
    """
    result = PassResult("overlap_waits")
    for w, nodes in enumerate(epoch.ops):
        i = 0
        while i < len(nodes):
            n = nodes[i]
            if (n.kind == "wait"
                    and n.args.get("start_op") in ("irecv", "ibarrier")
                    and n.ir_pass is None):
                moved = 0
                while (i + 1 < len(nodes) and nodes[i + 1].kind == "local"
                       and n.idx not in nodes[i + 1].deps):
                    nodes[i], nodes[i + 1] = nodes[i + 1], nodes[i]
                    i += 1
                    moved += 1
                if moved:
                    n.ir_pass = "overlap_waits"
                    result.note(f"rank {w}: wait(idx={n.idx}) pushed past "
                                f"{moved} compute node(s)")
            i += 1
    return result


# -- the pipeline ------------------------------------------------------------


PASSES: Dict[str, Callable[[Epoch], PassResult]] = {
    "fuse_reduce_bcast": fuse_reduce_bcast,
    "batch_bcasts": batch_bcasts,
    "fuse_count_exchange": fuse_count_exchange,
    "coalesce_sends": coalesce_sends,
    "ring_to_sendrecv": ring_to_sendrecv,
    "overlap_waits": overlap_waits,
}

DEFAULT_PASSES: Tuple[str, ...] = tuple(PASSES)


class PassManager:
    """Runs the pass pipeline, :data:`DEFAULT_PASSES` in order, over an
    epoch.  Each pass is looked up in :data:`PASSES` when it runs."""

    def run(self, epoch: Epoch) -> List[PassResult]:
        """Apply the pipeline in order, mutating ``epoch`` in place."""
        return [PASSES[name](epoch) for name in DEFAULT_PASSES]
