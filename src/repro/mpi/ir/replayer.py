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
from repro.mpi.collectives import CALLS, COLLECTIVES, NONBLOCKING, Collective
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
            return lambda comm, n: comm.compute(n.args["seconds"])
        if kind in ("p2p", "mgmt"):
            return self._compile_call(node)
        if kind == "coll":
            return self._compile_coll(node)
        if kind == "nbc":
            return self._compile_nbc(node)
        if kind == "wait":
            return self._run_wait
        raise IRReplayError(f"{_describe(node)}: unknown node kind")

    # -- point-to-point and communicator management ------------------------

    def _compile_call(self, node: CommOp) -> Callable[[RawComm, CommOp], None]:
        """``comm.<method>(**arguments)`` as ``node.op`` declares them, a
        receive's source and tag as matched at recording; then the request
        is kept for its wait node, a receive verified, or a derived
        communicator checked against the recording and adopted."""
        call = CALLS.get(node.op)
        if call is None or call.kind != node.kind or not call.replay:
            raise IRReplayError(f"{_describe(node)}: unreplayable "
                                f"{node.kind} op")
        method = call.method
        matched = dict(zip(call.receives, ("matched_source", "matched_tag")))
        names = [k for k in call.params if k != "payload"]

        def run_call(comm: RawComm, n: CommOp) -> None:
            kwargs = {k: _concrete(n.args, matched[k], k) if k in matched
                      else n.args[k] for k in names}
            if call.sends:
                kwargs["payload"] = n.payload
            out = getattr(comm, method)(**kwargs)
            if call.request:
                self.pending[n.idx] = out
            elif call.receives:
                _verify(n, out)
                self.verified += 1
            elif call.kind == "mgmt":
                derived = out.comm_id if out is not None else None
                if derived != n.args["new_comm"]:
                    raise IRReplayError(
                        f"{_describe(n)} derived communicator {derived!r}, "
                        f"recording expected {n.args['new_comm']!r}")
                if out is not None:
                    self.comms[derived] = out
        return run_call

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
        picked = comm.machine.engine.resolve(
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


def replay_main(raw: RawComm, plan: ReplayPlan) -> dict:
    """Per-rank replay entry for :func:`repro.mpi.machine.run_mpi`."""
    return Replayer(raw, plan).run()
