"""The raw collectives' calling conventions, declared once.

One :class:`Collective` per blocking collective says what the layers above
the algorithms must know to *call* it: its positional parameters, which
ranks contribute the payload, which record received bytes, the trace peers,
how the engine's ``nbytes`` hint is taken, and the tag code of its
non-blocking twin.  ``RawComm``'s shared call body, :mod:`repro.mpi.nbc`, the
IR recorder and replayer, the tracer's sample harvest and the op sets of
:mod:`repro.mpi.faultinject` and :mod:`repro.mpi.autotune` read this table
and state none of it again; it imports nothing from the runtime so that all
of them can.  What an algorithm *does* with the arguments — validation,
schedules, the p = 1 fast paths — stays in :mod:`repro.mpi.algorithms`.

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
