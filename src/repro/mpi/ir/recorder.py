"""Recording an epoch: a ``RawComm`` subclass that journals every raw op.

:class:`RecordingComm` is substituted for the plain raw communicator when a
run is started with ``run_mpi(fn, p, ir=...)``.  Every *public* raw call is
executed normally and journaled as one :class:`CommOp` node — inputs
snapshotted, outputs after the call — so the recorded graph is
simultaneously a faithful transcript and an executable schedule.  What to
journal is read from the call's declaration (:mod:`repro.mpi.collectives`):
all collectives go through two overrides, of ``RawComm._collective`` and
``._start``; every other declared call through one generated override whose
body is :meth:`RecordingComm._call`.  Only ``ibarrier``, which completes on
the arrival counter and starts no schedule, keeps a method of its own.  The
*internal* point-to-point rounds of collective algorithms are deliberately
not recorded: a collective is one node, and its internal schedule is the
engine's business (the node pins which algorithm ran instead).

Value dependencies are recovered by object identity: each node registers its
result objects, and later nodes whose payloads are (or contain) a registered
object get a dependency edge.  Only container objects participate — interned
scalars would fabricate edges.

Calls whose declaration says the IR cannot replay them (the probes, whose
answer depends on timing; RMA windows; ULFM fault handling) are journaled as
*unsupported*; ``ir="record"`` reports them, ``ir="optimize"`` refuses the
run.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Hashable, Optional, Sequence

import numpy as np

from repro.mpi.collectives import CALLS, Call, Collective
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

    def add(self, comm: RawComm, kind: str, op: str, *,
            seq: Optional[int] = None, args: Optional[dict] = None,
            payload: Any = None, result: Any = None,
            deps: tuple[int, ...] = ()) -> CommOp:
        """Append one node; ``result`` (and its elements) count as produced
        by it."""
        idx = len(self.nodes)
        node = CommOp(idx=idx, rank=comm.rank, kind=kind, op=op,
                      comm=comm.comm_id, seq=seq, args=dict(args or {}),
                      payload=_snap(payload), result=_snap(result), deps=deps)
        self.nodes.append(node)
        items = result if isinstance(result, (list, tuple)) else ()
        for produced in (result, *items):
            if isinstance(produced, (np.ndarray, list, tuple, dict)):
                self._producers[id(produced)] = (idx, produced)
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
        self.waits = inner.waits

    def _record_wait(self, value: Any) -> None:
        if self._recorded:
            return
        self._recorded = True
        rec = self._comm.recorder
        call = CALLS.get(self._start.op)
        if call is not None and call.receives and value is not None:
            _, status = value  # (a cancelled receive completes with None)
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

    def blocked_on(self):
        return self._inner.blocked_on()

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
        recorder.members.setdefault(self.comm_id, tuple(state.members))

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

    # -- local compute ------------------------------------------------------

    def compute(self, seconds: float) -> None:
        super().compute(seconds)
        self.recorder.add(self, "local", "compute",
                          args={"seconds": seconds})

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

    # -- every other declared call -------------------------------------------

    def _call(self, call: Call, raw: Callable, arguments: dict) -> Any:
        """The one journalling body of the point-to-point and management
        calls: the arguments under their declared names, a blocking
        receive's matched source and tag, a derived communicator's id (the
        communicator itself re-wrapped to journal too)."""
        rec = self.recorder
        seq = rec.next_seq(self.comm_id) if call.kind == "mgmt" else None
        out = raw(**arguments)
        payload = arguments.get("payload")
        args = {k: _snap(arguments[k]) for k in call.params if k != "payload"}
        result = None if call.request or call.kind == "mgmt" else out
        if call.receives and result is not None:
            status = out[1]
            args["matched_source"], args["matched_tag"] = status.source, status.tag
        if call.kind == "mgmt":
            args["new_comm"] = None if out is None else out.comm_id
            if out is not None:
                out = RecordingComm(out.machine, out.state, out.world_rank, rec)
        node = rec.add(self, call.kind, call.name, seq=seq, args=args,
                       payload=payload, result=result,
                       deps=rec.deps_of(payload))
        return RecordingRequest(out, self, node) if call.request else out


def _journalled(call: Call) -> Callable:
    """``RecordingComm``'s override of one declared call: journalled through
    :meth:`RecordingComm._call`, or noted as unsupported and run as is."""
    raw = getattr(RawComm, call.method)
    bind = inspect.signature(raw).bind

    def method(self, *args, **kwargs):
        if not call.replay:
            self.recorder.unsupported.add(call.name)
            return raw(self, *args, **kwargs)
        bound = bind(self, *args, **kwargs)
        bound.apply_defaults()
        return self._call(call, raw, bound.arguments)

    method.__name__ = call.method
    method.__doc__ = raw.__doc__
    return method


for _declared in CALLS.values():
    if not _declared.window:
        setattr(RecordingComm, _declared.method, _journalled(_declared))


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
