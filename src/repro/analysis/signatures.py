"""The linter's knowledge of the named-parameter API, read off the runtime.

The operation contracts are the :class:`~repro.core.plans.OpSpec` objects
the call-plan compiler validates against: every
:class:`~repro.core.communicator.Communicator` method carries the one its
calls are checked by (``method.spec``).  The factory → parameter map is what
each factory of :mod:`repro.core.named_params` builds, and the raw layer's
method names are :class:`~repro.mpi.context.RawComm`'s, and the
point-to-point sends and receives those :mod:`repro.mpi.collectives`
declares.  The linter therefore cannot know a *different* API than the one
that executes.  Written down here is only what no runtime table says: the
two operations whose buffer is one of several.
"""

from __future__ import annotations

import inspect
from typing import Dict, FrozenSet, Mapping, Optional, Tuple

from repro.core import named_params
from repro.core.communicator import SPECS, Communicator
from repro.core.plans import OpSpec
from repro.mpi.collectives import COLLECTIVES, RECVS, SENDS
from repro.mpi.context import RawComm


def _builds(factory: str) -> Tuple[str, str]:
    """(key, direction) of the parameter ``factory`` builds: what its
    ``_<factory> = constructor(key, direction)`` makes of no payload."""
    token = getattr(named_params, f"_{factory}")().token
    return token.key, token.direction


#: factory function name -> (parameter key, direction)
FACTORY_PARAMS: Dict[str, Tuple[str, str]] = {
    name: _builds(name)
    for name, factory in inspect.getmembers(named_params, inspect.isfunction)
    if factory.__module__ == named_params.__name__ and name[0] != "_"
}

#: wrapped method name -> the name of the OpSpec validating its calls
METHOD_SPECS: Dict[str, str] = {
    name: method.spec.name for name, method in vars(Communicator).items()
    if hasattr(method, "spec")
}

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

#: point-to-point sends / receives, for RPL104 matching (the raw calls' names)
SEND_METHODS: FrozenSet[str] = SENDS
RECV_METHODS: FrozenSet[str] = RECVS

#: variable-size collectives that infer recv counts when none are passed
COUNT_INFERRING_METHODS: FrozenSet[str] = frozenset(
    m for m, spec in METHOD_SPECS.items()
    if "recv_counts" in SPECS[spec].optional)

#: method names the raw layer does not share, unambiguous enough to lint
#: regardless of the receiver's name (a shared one — send, gatherv, … — also
#: needs a comm-like receiver or a factory argument)
DISTINCTIVE_METHODS: FrozenSet[str] = frozenset(METHOD_SPECS) - frozenset(
    dir(RawComm))

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
