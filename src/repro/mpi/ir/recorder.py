"""Recording an epoch: a ``RawComm`` subclass that journals every raw op.

:class:`RecordingComm` is substituted for the plain raw communicator when a
run is started with ``run_mpi(fn, p, ir=...)``.  Every *public* raw call is
executed normally (``super()``) and journaled as one :class:`CommOp` node —
inputs snapshotted before the call, outputs after — so the recorded graph is
simultaneously a faithful transcript and an executable schedule.  All
collectives go through two overrides, of ``RawComm._collective`` and
``._start``, which read what to journal from the op's declaration
(:mod:`repro.mpi.collectives`); only ``ibarrier``, which completes on the
arrival counter and starts no schedule, keeps a method of its own.  The
*internal* point-to-point rounds of collective algorithms are deliberately
not recorded: a collective is one node, and its internal schedule is the
engine's business (the node pins which algorithm ran instead).

Value dependencies are recovered by object identity: each node registers its
result objects, and later nodes whose payloads are (or contain) a registered
object get a dependency edge.  Only container objects participate — interned
scalars would fabricate edges.

Ops the IR cannot replay faithfully (probe/iprobe whose answer depends on
timing, RMA windows, ULFM fault handling) are journaled as *unsupported*;
``ir="record"`` reports them, ``ir="optimize"`` refuses the run.
"""

from __future__ import annotations

from typing import Any, Hashable, Optional, Sequence

import numpy as np

from repro.mpi.collectives import Collective
from repro.mpi.constants import ANY_SOURCE, ANY_TAG
from repro.mpi.context import RawComm
from repro.mpi.datatypes import snapshot as _snap
from repro.mpi.ir.nodes import CommOp
from repro.mpi.requests import RawRequest


class UnsupportedForIR(RuntimeError):
    """The recorded epoch used ops the IR cannot replay faithfully."""


class Recorder:
    """One rank's journal of :class:`CommOp` nodes, in issue order."""

    def __init__(self, world_rank: int):
        self.world_rank = world_rank
        self.nodes: list[CommOp] = []
        self.unsupported: set[str] = set()
        #: comm id -> tuple of world ranks backing its local ranks
        self.members: dict[Hashable, tuple[int, ...]] = {}
        #: id(result object) -> (index of the node that produced it, the
        #: object).  The journal keeps only a snapshot of a result, so once
        #: the program drops the object a fresh payload can reuse its id.
        self._producers: dict[int, tuple[int, Any]] = {}
        #: per-comm instance counter for collectives/nbc/management ops
        self._seq: dict[Hashable, int] = {}

    def register_comm(self, comm: RawComm) -> None:
        self.members.setdefault(comm.comm_id, tuple(comm.state.members))

    def next_seq(self, comm_id: Hashable) -> int:
        seq = self._seq.get(comm_id, 0)
        self._seq[comm_id] = seq + 1
        return seq

    def deps_of(self, *payloads: Any) -> tuple[int, ...]:
        """Dependency edges for a node's input payloads (identity-based)."""
        deps = set()
        for payload in payloads:
            items = payload if isinstance(payload, (list, tuple)) else ()
            for obj in (payload, *items):
                entry = self._producers.get(id(obj))
                if entry is not None and entry[1] is obj:
                    deps.add(entry[0])
        return tuple(sorted(deps))

    def note_result(self, idx: int, obj: Any) -> None:
        """Register ``obj`` (and its elements) as produced by node ``idx``."""
        items = obj if isinstance(obj, (list, tuple)) else ()
        for produced in (obj, *items):
            if isinstance(produced, (np.ndarray, list, tuple, dict)):
                self._producers[id(produced)] = (idx, produced)

    def add(self, comm: RawComm, kind: str, op: str, *,
            seq: Optional[int] = None, args: Optional[dict] = None,
            payload: Any = None, result: Any = None,
            deps: tuple[int, ...] = (), snap_result: bool = True) -> CommOp:
        node = CommOp(
            idx=len(self.nodes),
            rank=comm.rank,
            kind=kind,
            op=op,
            comm=comm.comm_id,
            seq=seq,
            args=dict(args) if args else {},
            payload=_snap(payload),
            result=_snap(result) if snap_result else result,
            deps=deps,
        )
        self.nodes.append(node)
        if result is not None:
            self.note_result(node.idx, result)
        return node

    def export(self) -> dict:
        """Picklable per-rank journal (rides back through any backend)."""
        return {
            "world_rank": self.world_rank,
            "nodes": self.nodes,
            "members": self.members,
            "unsupported": self.unsupported,
        }


class RecordingRequest(RawRequest):
    """Wraps a raw request so its completion is journaled as a wait node.

    The first successful ``wait()``/``test()`` appends one ``wait`` node
    whose ``args["start"]`` names the start node; wildcard receives
    back-patch their start node with the concretely matched source/tag, which
    is what lets the replayer re-issue them deterministically.
    """

    def __init__(self, inner: RawRequest, comm: "RecordingComm",
                 start: CommOp):
        self._inner = inner
        self._comm = comm
        self._start = start
        self._recorded = False

    def _record_wait(self, value: Any) -> None:
        if self._recorded:
            return
        self._recorded = True
        rec = self._comm.recorder
        if (self._start.op == "irecv" and isinstance(value, tuple)
                and len(value) == 2):
            _, status = value
            self._start.args["matched_source"] = status.source
            self._start.args["matched_tag"] = status.tag
        rec.add(self._comm, "wait", "wait",
                args={"start": self._start.idx, "start_op": self._start.op},
                result=value, deps=(self._start.idx,))

    def wait(self) -> Any:
        value = self._inner.wait()
        self._record_wait(value)
        return value

    def test(self) -> tuple[bool, Any]:
        done, value = self._inner.test()
        if done:
            self._record_wait(value)
        return done, value

    def cancel(self) -> bool:
        self._comm.recorder.unsupported.add("cancel")
        self._start.args["cancelled"] = True
        return self._inner.cancel()  # type: ignore[attr-defined]

    @property
    def cancelled(self) -> bool:
        return getattr(self._inner, "cancelled", False)

    def audit_state(self) -> str:
        return self._inner.audit_state()

    def audit_pending_recvs(self):
        return self._inner.audit_pending_recvs()


class RecordingComm(RawComm):
    """Raw communicator that journals every public op it executes."""

    def __init__(self, machine, state, world_rank: int, recorder: Recorder):
        super().__init__(machine, state, world_rank)
        self.recorder = recorder
        self._resolved = None  # what _coll_algo answered, for _collective
        recorder.register_comm(self)

    # -- helpers -----------------------------------------------------------

    def _coll_algo(self, op: str, args: tuple = ()):
        """Resolve as usual, remembering the answer: the node journalled for
        a collective names the algorithm its call actually ran."""
        self._resolved = super()._coll_algo(op, args)
        return self._resolved

    def _journal(self, kind: str, op: str, call: Collective, args: tuple,
                 seq: int, *, result: Any = None,
                 algorithm: Optional[str] = None) -> CommOp:
        """Append the node of one declared collective call: the payload only
        where the declaration says this rank contributes it, the other
        arguments under their declared names, count vectors snapshotted and —
        results of earlier calls as a rule — tracked as inputs too."""
        payload = call.payload(self.rank, args)
        inputs, recorded = [payload], {}
        for name, value in zip(call.params[1:], args[1:]):
            if name.endswith("counts"):
                inputs.append(value)
                value = _snap(value)
            recorded[name] = value
        if algorithm is not None:
            recorded["algorithm"] = algorithm
        return self.recorder.add(self, kind, op, seq=seq, args=recorded,
                                 payload=payload, result=result,
                                 deps=self.recorder.deps_of(*inputs))

    def _adopt(self, comm: Optional[RawComm]) -> Optional["RecordingComm"]:
        """Re-wrap a communicator returned by a management op."""
        if comm is None:
            return None
        return RecordingComm(comm.machine, comm.state, comm.world_rank,
                             self.recorder)

    def _unsupported(self, op: str) -> None:
        self.recorder.unsupported.add(op)

    # -- local compute ------------------------------------------------------

    def compute(self, seconds: float) -> None:
        super().compute(seconds)
        self.recorder.add(self, "local", "compute",
                          args={"seconds": seconds})

    # -- point-to-point ------------------------------------------------------

    def send(self, payload: Any, dest: int, tag: int = 0) -> None:
        deps = self.recorder.deps_of(payload)
        super().send(payload, dest, tag)
        self.recorder.add(self, "p2p", "send",
                          args={"dest": dest, "tag": tag},
                          payload=payload, deps=deps)

    def ssend(self, payload: Any, dest: int, tag: int = 0) -> None:
        deps = self.recorder.deps_of(payload)
        super().ssend(payload, dest, tag)
        self.recorder.add(self, "p2p", "ssend",
                          args={"dest": dest, "tag": tag},
                          payload=payload, deps=deps)

    def isend(self, payload: Any, dest: int, tag: int = 0) -> RawRequest:
        deps = self.recorder.deps_of(payload)
        req = super().isend(payload, dest, tag)
        node = self.recorder.add(self, "p2p", "isend",
                                 args={"dest": dest, "tag": tag},
                                 payload=payload, deps=deps)
        return RecordingRequest(req, self, node)

    def issend(self, payload: Any, dest: int, tag: int = 0) -> RawRequest:
        deps = self.recorder.deps_of(payload)
        req = super().issend(payload, dest, tag)
        node = self.recorder.add(self, "p2p", "issend",
                                 args={"dest": dest, "tag": tag},
                                 payload=payload, deps=deps)
        return RecordingRequest(req, self, node)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        payload, status = super().recv(source, tag)
        self.recorder.add(
            self, "p2p", "recv",
            args={"source": source, "tag": tag,
                  "matched_source": status.source,
                  "matched_tag": status.tag},
            result=(payload, status),
        )
        return payload, status

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        req = super().irecv(source, tag)
        node = self.recorder.add(self, "p2p", "irecv",
                                 args={"source": source, "tag": tag})
        return RecordingRequest(req, self, node)

    def sendrecv(self, payload: Any, dest: int, source: int = ANY_SOURCE, *,
                 sendtag: int = 0, recvtag: int = ANY_TAG):
        deps = self.recorder.deps_of(payload)
        out, status = super().sendrecv(payload, dest, source,
                                       sendtag=sendtag, recvtag=recvtag)
        self.recorder.add(
            self, "p2p", "sendrecv",
            args={"dest": dest, "source": source, "sendtag": sendtag,
                  "recvtag": recvtag, "matched_source": status.source,
                  "matched_tag": status.tag},
            payload=payload, result=(out, status), deps=deps,
        )
        return out, status

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        self._unsupported("probe")
        return super().probe(source, tag)

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        self._unsupported("iprobe")
        return super().iprobe(source, tag)

    # -- synchronization -----------------------------------------------------

    def ibarrier(self) -> RawRequest:
        seq = self.recorder.next_seq(self.comm_id)
        req = super().ibarrier()
        node = self.recorder.add(self, "nbc", "ibarrier", seq=seq)
        return RecordingRequest(req, self, node)

    # -- collectives, blocking and non-blocking --------------------------------

    def _collective(self, call: Collective, *args: Any) -> Any:
        seq = self.recorder.next_seq(self.comm_id)
        self._resolved = None  # nothing a split or an RMA epoch left behind
        out = super()._collective(call, *args)
        self._journal("coll", call.name, call, args, seq, result=out,
                      algorithm=self._resolved.name)
        return out

    def _start(self, call: Collective, *args: Any) -> RawRequest:
        seq = self.recorder.next_seq(self.comm_id)
        req = super()._start(call, *args)
        node = self._journal("nbc", call.nbc[0], call, args, seq)
        return RecordingRequest(req, self, node)

    # -- communicator management ---------------------------------------------

    def dup(self) -> "RecordingComm":
        seq = self.recorder.next_seq(self.comm_id)
        inner = super().dup()
        wrapped = self._adopt(inner)
        self.recorder.add(self, "mgmt", "comm_dup", seq=seq,
                          args={"new_comm": inner.comm_id})
        return wrapped

    def split(self, color, key=None) -> Optional["RecordingComm"]:
        seq = self.recorder.next_seq(self.comm_id)
        inner = super().split(color, key)
        wrapped = self._adopt(inner)
        self.recorder.add(
            self, "mgmt", "comm_split", seq=seq,
            args={"color": color, "key": key,
                  "new_comm": inner.comm_id if inner is not None else None},
        )
        return wrapped

    def dist_graph_create_adjacent(self, sources, destinations
                                   ) -> "RecordingComm":
        seq = self.recorder.next_seq(self.comm_id)
        inner = super().dist_graph_create_adjacent(sources, destinations)
        wrapped = self._adopt(inner)
        self.recorder.add(
            self, "mgmt", "dist_graph_create_adjacent", seq=seq,
            args={"sources": tuple(sources),
                  "destinations": tuple(destinations),
                  "new_comm": inner.comm_id},
        )
        return wrapped

    # -- ops the IR does not model --------------------------------------------

    def win_create(self, local):
        self._unsupported("win_create")
        return super().win_create(local)

    def kill_self(self) -> None:
        self._unsupported("kill_self")
        super().kill_self()

    def revoke(self) -> None:
        self._unsupported("comm_revoke")
        super().revoke()

    def shrink(self, generation=0):
        self._unsupported("comm_shrink")
        return super().shrink(generation)

    def agree(self, flag: bool, generation=0) -> bool:
        self._unsupported("comm_agree")
        return super().agree(flag, generation)


def record_main(raw: RawComm, fn, user_args: Sequence[Any]) -> dict:
    """Per-rank recording entry: run ``fn`` on a journaling communicator.

    Returns a picklable dict so the journal rides back through any execution
    backend exactly like a normal return value.
    """
    recorder = Recorder(raw.world_rank)
    comm = RecordingComm(raw.machine, raw.state, raw.world_rank, recorder)
    value = fn(comm, *user_args)
    export = recorder.export()
    export["value"] = value
    return export
