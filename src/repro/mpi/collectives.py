"""The raw calls' calling conventions, declared once.

One :class:`Collective` per blocking collective says what the layers above
the algorithms must know to *call* it: its positional parameters, which
ranks contribute the payload, which record received bytes, the trace peers,
how the engine's ``nbytes`` hint is taken, and the tag code of its
non-blocking twin.  One :class:`Call` per other raw call — point-to-point,
communicator management, one-sided, fault tolerance — says the same of it:
its parameters, its PMPI counter, whether it returns a request or receives,
and whether the IR can replay it.  ``RawComm``'s shared call body,
:mod:`repro.mpi.nbc`, the IR recorder and replayer, the op sets of
:mod:`repro.mpi.faultinject`, the sweep hints of :mod:`repro.mpi.autotune`
and the linter's point-to-point methods read these tables and state none of
it again; this module imports nothing from the runtime so that all of them
can.  What an algorithm *does* with the
arguments — validation, schedules, the p = 1 fast paths — stays in
:mod:`repro.mpi.algorithms`; the point-to-point bodies stay in ``RawComm``,
where the per-message path is written out once.

**The ``nbytes`` hint convention** (what ``CollectiveEngine.resolve`` and
every cost formula receive) is the :attr:`Collective.hint` column:

- ``None`` — always 0.  The neighborhood collectives have one algorithm, and
  on the rooted scatter-side ops (bcast, scatter, scatterv) only the root
  knows the payload, so every rank must select with 0 to stay SPMD-consistent;
- ``"payload"`` — the byte size of the local payload (summed over a list of
  blocks), which MPI's matching-count semantics make equal on all ranks;
- ``"sendcounts"`` / ``"recvcounts"`` — the total of that count vector times
  the payload's item size: alltoallv's total local send volume, allgatherv's
  total gathered volume.  A trace event reconstructs the former from its
  ``sent`` bytes and the latter from ``recvd``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional


@dataclass(frozen=True)
class Collective:
    """The calling convention of one blocking collective (and its ``i*`` twin)."""

    name: str
    #: positional parameter names after ``self``: the first is the payload (in
    #: the plural: a list of one block per rank), a trailing ``root`` makes
    #: the collective rooted, names ending in ``counts`` are count vectors
    params: tuple[str, ...] = ()
    #: ranks whose payload argument is an input: all | root
    contributes: str = "all"
    #: ranks whose result counts as received bytes: all | root | nonroot
    receives: str = "all"
    #: trace peers: all | root | neighbors
    peers: str = "all"
    #: ``nbytes`` hint (module docstring): None | payload | sendcounts | recvcounts
    hint: Optional[str] = None
    #: name and collective-tag code of the non-blocking twin, where one exists
    nbc: Optional[tuple[str, int]] = None

    @property
    def blocks(self) -> bool:
        """Whether the payload is a list of one block per rank."""
        return bool(self.params) and self.params[0].endswith("s")

    def payload(self, rank: int, args: tuple) -> Any:
        """The payload ``rank`` contributes to this call (``None``: nothing)."""
        if not args or (self.contributes == "root" and rank != args[-1]):
            return None
        return args[0]

    def span_peers(self, args: tuple):
        """Trace peers of this call: a lazy marker or the root's local rank."""
        return (args[-1],) if self.peers == "root" else self.peers


def _declare(name: str, params: str = "", **roles: Any) -> Collective:
    return Collective(name, tuple(params.split()), **roles)


#: every blocking collective of ``RawComm``, by name
COLLECTIVES: dict[str, Collective] = {c.name: c for c in (
    _declare("barrier"),
    _declare("bcast", "payload root", contributes="root", receives="nonroot",
             peers="root", nbc=("ibcast", 17)),
    _declare("gather", "payload root", receives="root", peers="root",
             hint="payload"),
    _declare("gatherv", "sendbuf recvcounts root", receives="root",
             peers="root", hint="payload"),
    _declare("scatter", "payloads root", contributes="root", peers="root"),
    _declare("scatterv", "sendbuf sendcounts root", contributes="root",
             peers="root"),
    _declare("allgather", "payload", hint="payload", nbc=("iallgather", 19)),
    _declare("allgatherv", "sendbuf recvcounts", hint="recvcounts"),
    _declare("alltoall", "payloads", hint="payload"),
    _declare("alltoallv", "sendbuf sendcounts recvcounts", hint="sendcounts"),
    _declare("alltoallw", "send_blocks", hint="payload"),
    _declare("reduce", "value op root", receives="root", peers="root",
             hint="payload"),
    _declare("allreduce", "value op", hint="payload", nbc=("iallreduce", 18)),
    _declare("scan", "value op", hint="payload"),
    _declare("exscan", "value op", hint="payload"),
    _declare("neighbor_alltoall", "payloads", peers="neighbors"),
    _declare("neighbor_alltoallv", "sendbuf sendcounts recvcounts",
             peers="neighbors"),
)}

#: the non-blocking collectives, by name: each is its blocking twin's
#: declaration, started instead of waited (ibarrier is called like barrier
#: too, but completes on the communicator's arrival counter, not a schedule)
NONBLOCKING: dict[str, Collective] = {
    "ibarrier": COLLECTIVES["barrier"],
    **{c.nbc[0]: c for c in COLLECTIVES.values() if c.nbc is not None},
}


@dataclass(frozen=True)
class Call:
    """The calling convention of one raw call that is not a collective."""

    #: PMPI counter, IR op and fault-selector name (``kill_self``, which is
    #: not counted: its method's)
    name: str
    #: parameters after ``self``: the journal's ``args`` keys
    params: tuple[str, ...]
    #: p2p | mgmt (the IR node kinds) | rma | ulfm
    kind: str
    #: its method on ``RawComm``, or on ``RawWindow`` if ``window``
    method: str
    window: bool
    request: bool
    #: a receive's (source, tag) parameters; the journal records what they
    #: matched, so a replay re-issues it deterministically
    receives: tuple[str, ...]
    #: the IR can replay it (not the probes, which answer by timing, nor
    #: RMA and ULFM, which it does not model)
    replay: bool

    @property
    def sends(self) -> bool:
        """Whether the first parameter is data sent."""
        return self.params[:1] == ("payload",)


def _call(name: str, params: str = "", kind: str = "p2p", *,
          method: str = "", window: bool = False, request: bool = False,
          receives: str = "", replay: Optional[bool] = None) -> Call:
    return Call(name, tuple(params.split()), kind, method or name, window,
                request, tuple(receives.split()),
                kind in ("p2p", "mgmt") if replay is None else replay)


def _window(method: str, params: str = "") -> Call:
    return _call("win_" + method, params, "rma", method=method, window=True)


#: every raw call that is not a collective, by counter name
CALLS: dict[str, Call] = {c.name: c for c in (
    _call("send", "payload dest tag"),
    _call("ssend", "payload dest tag"),
    _call("isend", "payload dest tag", request=True),
    _call("issend", "payload dest tag", request=True),
    _call("recv", "source tag", receives="source tag"),
    _call("irecv", "source tag", request=True, receives="source tag"),
    _call("sendrecv", "payload dest source sendtag recvtag",
          receives="source recvtag"),
    _call("probe", "source tag", replay=False),
    _call("iprobe", "source tag", replay=False),
    _call("comm_dup", kind="mgmt", method="dup"),
    _call("comm_split", "color key", "mgmt", method="split"),
    _call("dist_graph_create_adjacent", "sources destinations", "mgmt"),
    _call("win_create", "local", "rma"),
    _window("fence"),
    _window("lock", "target exclusive"),
    _window("unlock", "target"),
    _window("put", "data target offset"),
    _window("get", "target offset count"),
    _window("accumulate", "data target offset op"),
    _window("fetch_and_op", "value target offset op"),
    _window("compare_and_swap", "value compare target offset"),
    _window("free"),
    _call("kill_self", kind="ulfm"),
    _call("comm_revoke", kind="ulfm", method="revoke"),
    _call("comm_shrink", "generation", "ulfm", method="shrink"),
    _call("comm_agree", "flag generation", "ulfm", method="agree"),
)}

#: the point-to-point calls that only send, and those that only receive
#: (``sendrecv`` does both; the probes receive nothing)
SENDS = frozenset(n for n, c in CALLS.items() if c.sends and not c.receives)
RECVS = frozenset(n for n, c in CALLS.items() if c.receives and not c.sends)
