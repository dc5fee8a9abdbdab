"""The recorded dataflow IR's node types and its value equality.

The communication-plan IR records the ops a rank *actually issued* during an
epoch as :class:`CommOp` nodes collected into an :class:`Epoch` graph,
rewritten by :mod:`repro.mpi.ir.passes` and executed by
:mod:`repro.mpi.ir.replayer`.  :func:`canonical` is the bit-identity the
replayer's guarantee is defined over.
"""

from __future__ import annotations

import pickle
import struct
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Set, Tuple

import numpy as np

from repro.mpi.collectives import COLLECTIVES
from repro.mpi.datatypes import payload_nbytes


# -- canonical value forms (bit-identity comparison) -------------------------


def canonical(value: Any) -> Any:
    """Lower a payload/result to a canonical, comparable, hashable form.

    Arrays compare by dtype + shape + exact buffer bytes, floats by their
    IEEE bit pattern, and sequences structurally (lists and tuples collapse
    to the same form, matching the runtime's looseness about which one a
    collective returns).  This is the equality the replayer's "bit-identical"
    guarantee is defined over.
    """
    if value is None or isinstance(value, (bool, str, bytes)):
        return value
    if isinstance(value, np.ndarray):
        return ("nd", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (int, np.integer)):
        return ("i", int(value))
    if isinstance(value, (float, np.floating)):
        return ("f", struct.pack("<d", float(value)))
    if isinstance(value, (list, tuple)):
        return ("seq", tuple(canonical(v) for v in value))
    if isinstance(value, dict):
        return ("map", tuple(sorted((k, canonical(v)) for k, v in value.items())))
    # Status and other small value objects: compare by their public fields.
    fields = getattr(value, "__dataclass_fields__", None)
    if fields is not None:
        return (type(value).__name__,) + tuple(
            canonical(getattr(value, name)) for name in fields
        )
    try:
        return ("pickle", pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:  # pragma: no cover - exotic unpicklable results
        return ("repr", repr(value))


def values_equal(a: Any, b: Any) -> bool:
    """Bit-identity over the canonical form (NaNs compare by bit pattern)."""
    return canonical(a) == canonical(b)


# -- dynamic nodes (the recorded dataflow IR) --------------------------------


@dataclass
class CommOp:
    """One recorded operation — an SSA-flavored node of the epoch graph.

    ``idx`` is the rank-local SSA name of the node's result; ``deps`` are the
    rank-local value dependencies (indices of the nodes that produced this
    node's input payloads).  Cross-rank structure is implicit: collective and
    management nodes align by ``(comm, seq)`` instance, point-to-point nodes
    by per-``(source, dest, tag)`` channel FIFO order.
    """

    idx: int
    #: issuing rank, local to ``comm``
    rank: int
    #: "coll" (blocking collective), "p2p" (point-to-point), "nbc"
    #: (non-blocking start, incl. ibarrier), "wait" (completion of a
    #: non-blocking start), "mgmt" (communicator management), "local"
    kind: str
    op: str
    comm: Hashable = "world"
    #: per-(rank, comm) collective-instance number (colls/nbc/mgmt only)
    seq: Optional[int] = None
    args: Dict[str, Any] = field(default_factory=dict)
    #: input payload snapshot (``None`` when the op takes no local input)
    payload: Any = None
    #: recorded output — the replayer's expected value for this node
    result: Any = None
    #: rank-local value-dependency edges (indices of producing nodes)
    deps: Tuple[int, ...] = ()
    #: name of the rewrite pass that produced this node (``None``: recorded)
    ir_pass: Optional[str] = None

    @property
    def is_raw(self) -> bool:
        """Whether replaying this node issues a counted raw MPI call."""
        return self.kind in ("coll", "p2p", "nbc", "mgmt")

    def nbytes(self) -> int:
        """Wire-byte estimate of the node's input payload."""
        if self.payload is None:
            return 0
        call = COLLECTIVES.get(self.op)
        if (call is not None and call.blocks
                and isinstance(self.payload, (list, tuple))):
            return sum(payload_nbytes(x) for x in self.payload)
        return payload_nbytes(self.payload)


@dataclass
class Epoch:
    """The recorded (or rewritten) dataflow graph of one run.

    ``ops[w]`` is world rank ``w``'s node list in program order; ``members``
    maps each communicator id to the world ranks backing its local ranks
    (needed to align instances across ranks).
    """

    num_ranks: int
    ops: List[List[CommOp]]
    members: Dict[Hashable, Tuple[int, ...]] = field(default_factory=dict)
    #: op names the recorder could not model for replay (probe, RMA, ULFM…)
    unsupported: Set[str] = field(default_factory=set)

    # -- structure queries -------------------------------------------------

    def op_counts(self) -> Counter:
        """Raw-op histogram over all ranks (what PMPI counters would see)."""
        c: Counter = Counter()
        for per_rank in self.ops:
            for node in per_rank:
                if node.is_raw:
                    c[node.op] += 1
        return c

    def total_raw_ops(self) -> int:
        return sum(self.op_counts().values())

    def total_bytes(self) -> int:
        """Summed wire-byte estimate of every raw node's input payload."""
        return sum(node.nbytes() for per_rank in self.ops for node in per_rank
                   if node.is_raw)

    def instances(self) -> Dict[Tuple[Hashable, int], Dict[int, Tuple[int, CommOp]]]:
        """Collective instances: ``(comm, seq) -> {world_rank: (pos, node)}``."""
        inst: Dict[Tuple[Hashable, int], Dict[int, Tuple[int, CommOp]]] = {}
        for w, per_rank in enumerate(self.ops):
            for pos, node in enumerate(per_rank):
                if node.seq is not None:
                    inst.setdefault((node.comm, node.seq), {})[w] = (pos, node)
        return inst

    def alloc_idx(self, world_rank: int) -> int:
        """A fresh SSA index for a rewritten node on one rank."""
        taken = [n.idx for n in self.ops[world_rank]]
        return (max(taken) + 1) if taken else 0

    def rewritten(self) -> List[CommOp]:
        """Every node carrying pass provenance, across all ranks."""
        return [n for per_rank in self.ops for n in per_rank
                if n.ir_pass is not None]

    def summary(self) -> Dict[str, Any]:
        return {
            "raw_ops": self.total_raw_ops(),
            "bytes": self.total_bytes(),
            "per_op": dict(self.op_counts()),
            "rewritten": len(self.rewritten()),
        }
