"""The linter's knowledge of the named-parameter API.

This module is the bridge between the static analyzer and the runtime: the
operation contracts come straight from :data:`repro.core.communicator.SPECS`
(the same :class:`~repro.core.plans.OpSpec` objects the call-plan compiler
validates against), and the factory → parameter-key mapping is checked at
import time against :mod:`repro.core.named_params`.  The linter therefore
cannot know a *different* API than the one that executes.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Mapping, Optional, Tuple

from repro.core import named_params as _np_mod
from repro.core.communicator import SPECS
from repro.core.parameters import IN, INOUT, OUT
from repro.core.plans import OpSpec
from repro.mpi.collectives import COLLECTIVES

#: factory function name -> (parameter key, direction)
FACTORY_PARAMS: Dict[str, Tuple[str, str]] = {
    "send_buf": ("send_buf", IN),
    "send_buf_out": ("send_buf", INOUT),
    "recv_buf": ("recv_buf", OUT),
    "send_recv_buf": ("send_recv_buf", INOUT),
    "send_counts": ("send_counts", IN),
    "send_counts_out": ("send_counts", OUT),
    "recv_counts": ("recv_counts", IN),
    "recv_counts_out": ("recv_counts", OUT),
    "send_displs": ("send_displs", IN),
    "send_displs_out": ("send_displs", OUT),
    "recv_displs": ("recv_displs", IN),
    "recv_displs_out": ("recv_displs", OUT),
    "send_count": ("send_count", IN),
    "recv_count": ("recv_count", IN),
    "recv_count_out": ("recv_count", OUT),
    "send_recv_count": ("send_recv_count", IN),
    "op": ("op", IN),
    "root": ("root", IN),
    "destination": ("destination", IN),
    "source": ("source", IN),
    "tag": ("tag", IN),
    "values_on_rank_0": ("values_on_rank_0", IN),
    "status_out": ("status", OUT),
}

# import-time drift check: every factory the mapping names must exist in
# repro.core.named_params (adding a factory without teaching the linter shows
# up as a missed finding, not a crash, so this is deliberately one-sided)
for _name in FACTORY_PARAMS:
    assert hasattr(_np_mod, _name), f"named_params.{_name} disappeared"

#: wrapped-method aliases: method name -> the OpSpec name validating its call
METHOD_SPECS: Dict[str, str] = {name: name for name in SPECS}
METHOD_SPECS.update({
    "bcast_single": "bcast",
    "reduce_single": "reduce",
    "allreduce_single": "allreduce",
    "scan_single": "scan",
    "exscan_single": "exscan",
    "ibcast": "bcast",
    "iallreduce": "allreduce",
    "iallgather": "allgather",
    "probe": "recv",
})

#: methods returning a NonBlockingResult that must be completed: MPI's "I"
#: before the name of a blocking one
NONBLOCKING_METHODS: FrozenSet[str] = frozenset(
    m for m in METHOD_SPECS if m[0] == "i" and m[1:] in SPECS)

#: methods that are collectives (every rank of the communicator must call)
COLLECTIVE_METHODS: FrozenSet[str] = frozenset(
    m for m, spec in METHOD_SPECS.items() if spec in COLLECTIVES)

#: reductions, for RPL103 op-mismatch checking
REDUCTION_METHODS: FrozenSet[str] = frozenset(
    m for m, spec in METHOD_SPECS.items() if "op" in SPECS[spec].required)

#: collectives that take a root (default 0), for RPL102
ROOTED_METHODS: FrozenSet[str] = frozenset(
    m for m, spec in METHOD_SPECS.items() if "root" in SPECS[spec].optional)

#: point-to-point sends / receives, for RPL104 matching
SEND_METHODS: FrozenSet[str] = frozenset({"send", "ssend", "isend", "issend"})
RECV_METHODS: FrozenSet[str] = frozenset({"recv", "irecv"})

#: variable-size collectives that infer recv counts when none are passed
COUNT_INFERRING_METHODS: FrozenSet[str] = frozenset(
    m for m, spec in METHOD_SPECS.items()
    if "recv_counts" in SPECS[spec].optional)

#: method names unambiguous enough to lint regardless of the receiver's name
#: (the raw simulator layer shares the short names — send, recv, gather … —
#: so those additionally need a comm-like receiver or a factory argument)
DISTINCTIVE_METHODS: FrozenSet[str] = frozenset(METHOD_SPECS) - frozenset({
    "send", "ssend", "recv", "probe", "gather", "scatter", "reduce",
    "bcast", "barrier", "scan", "exscan", "alltoall", "allgather",
    "allreduce", "isend", "issend", "irecv", "ibcast", "iallreduce",
    "iallgather",
})

#: operations where one of several buffer parameters must be present; the
#: OpSpec marks them optional because either one satisfies the contract
EITHER_REQUIRED: Mapping[str, Tuple[str, ...]] = {
    "allgather": ("send_buf", "send_recv_buf"),
    "iallgather": ("send_buf",),
}


def spec_for(method: str) -> Optional[OpSpec]:
    """The operation contract validating calls to ``method`` (None: unknown)."""
    spec_name = METHOD_SPECS.get(method)
    return SPECS[spec_name] if spec_name is not None else None


def looks_like_comm(name: str) -> bool:
    """Heuristic: does a receiver name denote a wrapped communicator?

    ``comm``, ``row_comm``, ``comm_world``, … — the naming convention used
    throughout the repository and its examples.  ``raw`` receivers (the
    simulator's PMPI layer) are explicitly *not* comm-like.
    """
    lowered = name.lower()
    return "comm" in lowered and lowered != "rawcomm"
