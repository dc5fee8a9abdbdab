"""Replaying an (optimized) epoch through the call-plan cache.

The replayer walks one rank's node list in order and re-issues each raw op
with the recorded (post-rewrite) arguments.  Execution recipes are compiled
once per ``(op, signature)`` through :class:`repro.core.plans.PlanCache` —
the same cache the named-parameter layer uses — so a steady-state replay
does one dictionary probe per node and zero re-validation: the IR rides the
paper's zero-overhead machinery instead of bypassing it.

Faithfulness is enforced, not assumed: every node that recorded a result is
re-verified with :func:`repro.mpi.ir.nodes.values_equal` (bit-level for
arrays and floats), and collective nodes are replayed under a scoped pin of
the *recorded* algorithm.  Any mismatch — a value that diverges, an
environment-forced algorithm that beats the pin, a management op deriving a
different communicator — raises :class:`IRReplayError` naming the node
instead of silently producing a different run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List

import numpy as np

from repro.core.plans import PlanCache
from repro.mpi.collectives import COLLECTIVES, NONBLOCKING, Collective
from repro.mpi.context import RawComm
from repro.mpi.ir.nodes import CommOp, values_equal

__all__ = ["IRReplayError", "ReplayPlan", "Replayer", "replay_main"]


class IRReplayError(RuntimeError):
    """Replay diverged from the recording (or could not be made faithful)."""


@dataclass
class ReplayPlan:
    """Picklable per-run replay input: the full schedule plus membership."""

    #: per-world-rank node lists (rewritten epoch order)
    schedule: List[List[CommOp]]
    #: comm id -> tuple of world ranks backing its local ranks
    members: Dict[Hashable, tuple] = field(default_factory=dict)


def _describe(node: CommOp) -> str:
    return (f"node idx={node.idx} op={node.op!r} kind={node.kind!r} "
            f"comm={node.comm!r} seq={node.seq!r}")


def _verify(node: CommOp, value: Any) -> None:
    if not values_equal(value, node.result):
        raise IRReplayError(
            f"replay diverged at {_describe(node)}: replayed value "
            f"{value!r} != recorded {node.result!r}"
        )


def _invoker(table: Dict[str, Collective], node: CommOp
             ) -> Callable[[RawComm, CommOp], Any]:
    """``comm.<op>(payload, *arguments)`` in the order ``op`` declares them."""
    call = table.get(node.op)
    if call is None:
        raise IRReplayError(f"{_describe(node)}: no declared collective of "
                            f"that name (repro.mpi.collectives)")
    op, names = node.op, call.params[1:]
    if not call.params:  # barrier and ibarrier take no payload either
        return lambda comm, n: getattr(comm, op)()
    return lambda comm, n: getattr(comm, op)(
        n.payload, *(n.args[k] for k in names))


def _concrete(args: dict, matched: str, fallback: str) -> Any:
    """The deterministic peer/tag to re-issue a receive with."""
    value = args.get(matched)
    if value is None or (isinstance(value, int) and value < 0):
        value = args[fallback]
    return value


class Replayer:
    """One rank's replay engine: node list in, verified execution out."""

    def __init__(self, raw: RawComm, plan: ReplayPlan):
        self.plan = plan
        #: comm id -> live RawComm (management nodes extend this)
        self.comms: Dict[Hashable, RawComm] = {raw.comm_id: raw}
        #: start-node idx -> in-flight request (consumed by wait nodes)
        self.pending: Dict[int, Any] = {}
        self.cache = PlanCache()
        self.verified = 0

    # -- driving -----------------------------------------------------------

    def run(self) -> dict:
        world_rank = next(iter(self.comms.values())).world_rank
        for node in self.plan.schedule[world_rank]:
            self.execute(node)
        if self.pending:
            raise IRReplayError(
                f"replay finished with {len(self.pending)} request(s) never "
                f"waited on (start idxs {sorted(self.pending)})"
            )
        return {
            "verified": self.verified,
            "compilations": self.cache.compilations,
            "hits": self.cache.hits,
        }

    def execute(self, node: CommOp) -> None:
        comm = self.comms.get(node.comm)
        if comm is None:
            raise IRReplayError(
                f"{_describe(node)} targets a communicator the replay never "
                f"derived"
            )
        signature = (
            "ir:" + node.op,
            node.kind,
            node.args.get("algorithm"),
            tuple(sorted(node.args)),
            node.payload is not None,
        )
        recipe = self.cache.compiled(signature, self._compile, node)
        comm._ir_pass = node.ir_pass
        try:
            recipe(comm, node)
        finally:
            comm._ir_pass = None

    # -- recipe compilation (once per signature, via the plan cache) -------

    def _compile(self, node: CommOp) -> Callable[[RawComm, CommOp], None]:
        kind = node.kind
        if kind == "local":
            return self._run_local
        if kind == "p2p":
            return self._compile_p2p(node)
        if kind == "coll":
            return self._compile_coll(node)
        if kind == "nbc":
            return self._compile_nbc(node)
        if kind == "wait":
            return self._run_wait
        if kind == "mgmt":
            return self._compile_mgmt(node)
        raise IRReplayError(f"{_describe(node)}: unknown node kind")

    def _run_local(self, comm: RawComm, node: CommOp) -> None:
        comm.compute(node.args["seconds"])

    # -- point-to-point ----------------------------------------------------

    def _compile_p2p(self, node: CommOp) -> Callable[[RawComm, CommOp], None]:
        op = node.op
        if op in ("send", "ssend"):
            def run_send(comm: RawComm, n: CommOp) -> None:
                getattr(comm, op)(n.payload, n.args["dest"], n.args["tag"])
            return run_send
        if op in ("isend", "issend"):
            def run_isend(comm: RawComm, n: CommOp) -> None:
                self.pending[n.idx] = getattr(comm, op)(
                    n.payload, n.args["dest"], n.args["tag"])
            return run_isend
        if op == "recv":
            def run_recv(comm: RawComm, n: CommOp) -> None:
                out = comm.recv(_concrete(n.args, "matched_source", "source"),
                                _concrete(n.args, "matched_tag", "tag"))
                _verify(n, out)
                self.verified += 1
            return run_recv
        if op == "irecv":
            def run_irecv(comm: RawComm, n: CommOp) -> None:
                self.pending[n.idx] = comm.irecv(
                    _concrete(n.args, "matched_source", "source"),
                    _concrete(n.args, "matched_tag", "tag"))
            return run_irecv
        if op == "sendrecv":
            def run_sendrecv(comm: RawComm, n: CommOp) -> None:
                out = comm.sendrecv(
                    n.payload, n.args["dest"],
                    _concrete(n.args, "matched_source", "source"),
                    sendtag=n.args["sendtag"],
                    recvtag=_concrete(n.args, "matched_tag", "recvtag"))
                _verify(n, out)
                self.verified += 1
            return run_sendrecv
        raise IRReplayError(f"{_describe(node)}: unreplayable p2p op")

    # -- collectives -------------------------------------------------------

    def _pin_algorithm(self, comm: RawComm, node: CommOp) -> None:
        """Force the recorded algorithm via a rank-local scoped rule.

        Scoped rules shadow tuning tables and policies but *not* forced
        selection (``REPRO_COLL_*`` / engine overrides), so a forced
        environment that disagrees with the recording is detected here and
        refused — replaying a binomial-fused node through a linear schedule
        would change message order and float rounding.
        """
        algo = node.args.get("algorithm")
        if algo is None or comm.size == 1:
            return
        scoped = ((None, algo),)
        picked = comm.machine.engine.peek(
            node.op, p=comm.size, comm_id=comm.comm_id, scoped=scoped).name
        if picked != algo:
            raise IRReplayError(
                f"{_describe(node)} recorded algorithm {algo!r} but the "
                f"engine forces {picked!r} (REPRO_COLL_* override?); refusing "
                f"an unfaithful replay"
            )
        comm._coll_tuning[node.op] = scoped

    def _compile_coll(self, node: CommOp) -> Callable[[RawComm, CommOp], None]:
        op = node.op
        invoke = _invoker(COLLECTIVES, node)
        post_concat = node.args.get("post") == "concat"

        def run_coll(comm: RawComm, n: CommOp) -> None:
            self._pin_algorithm(comm, n)
            out = invoke(comm, n)
            if post_concat:
                out = np.concatenate(out)
            if n.result is not None or op not in ("barrier",):
                _verify(n, out)
                self.verified += 1
        return run_coll

    # -- non-blocking collectives ------------------------------------------

    def _compile_nbc(self, node: CommOp) -> Callable[[RawComm, CommOp], None]:
        invoke = _invoker(NONBLOCKING, node)

        def run_nbc(comm: RawComm, n: CommOp) -> None:
            self.pending[n.idx] = invoke(comm, n)
        return run_nbc

    # -- waits -------------------------------------------------------------

    def _run_wait(self, comm: RawComm, node: CommOp) -> None:
        req = self.pending.pop(node.args["start"], None)
        if req is None:
            raise IRReplayError(
                f"{_describe(node)} waits on start idx "
                f"{node.args['start']} with no in-flight request"
            )
        value = req.wait()
        _verify(node, value)
        self.verified += 1

    # -- communicator management -------------------------------------------

    def _compile_mgmt(self, node: CommOp) -> Callable[[RawComm, CommOp], None]:
        op = node.op

        def run_mgmt(comm: RawComm, n: CommOp) -> None:
            if op == "comm_dup":
                derived = comm.dup()
            elif op == "comm_split":
                derived = comm.split(n.args["color"], n.args["key"])
            elif op == "dist_graph_create_adjacent":
                derived = comm.dist_graph_create_adjacent(
                    list(n.args["sources"]), list(n.args["destinations"]))
            else:
                raise IRReplayError(f"{_describe(n)}: unreplayable mgmt op")
            recorded = n.args["new_comm"]
            derived_id = derived.comm_id if derived is not None else None
            if derived_id != recorded:
                raise IRReplayError(
                    f"{_describe(n)} derived communicator {derived_id!r}, "
                    f"recording expected {recorded!r}"
                )
            if derived is not None:
                self.comms[derived.comm_id] = derived
        return run_mgmt


def replay_main(raw: RawComm, plan: ReplayPlan) -> dict:
    """Per-rank replay entry for :func:`repro.mpi.machine.run_mpi`."""
    return Replayer(raw, plan).run()
