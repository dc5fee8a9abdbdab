"""Registered collective schedules exposed as static IR fragments.

A *fragment* is the per-rank point-to-point sequence a registered algorithm
executes at ``(p, rank, root)`` — a tuple of :class:`~repro.mpi.ir.nodes.P2P`
events in issue order.  Nothing here writes a schedule down:
:meth:`repro.mpi.algorithms.Algorithm.fragment` co-runs the generators that
also drive the blocking run and progress-on-test, and this module wraps the
recorded steps as ``P2P`` nodes.  So the rewrite passes and the tests reason
against the code that runs: ``fuse_reduce_bcast`` is sound *because*
``allreduce/reduce_bcast`` is, by ``yield from``, the reduce schedule
followed by the bcast schedule.

Algorithms listed in :data:`UNSOUND` (``allreduce/ring``'s payload-dependent
fallback is the canonical case) raise :class:`FragmentUnsound` — a
:class:`KeyError`, so callers that treat a missing fragment as "opaque" keep
working; the fuse passes match recorded ``algorithm`` provenance against
fragments that exist, so unsound algorithms are never rewritten.
"""

from __future__ import annotations

from repro.mpi import algorithms as _registry
from repro.mpi.algorithms.schedule import UNSOUND, FragmentUnsound  # noqa: F401
from repro.mpi.ir.nodes import P2P


def fragment(collective: str, name: str, p: int, rank: int,
             root: int = 0) -> tuple[P2P, ...]:
    """The static P2P schedule of ``collective/name`` on one rank.

    Raises :class:`FragmentUnsound` for the algorithms in :data:`UNSOUND`;
    callers treat that :class:`KeyError` as "opaque"."""
    steps = _registry.get(collective, name).fragment(p, rank, root)
    return tuple(P2P(kind, rank, peer, None, 0) for kind, peer in steps)


def has_fragment(collective: str, name: str) -> bool:
    _registry.get(collective, name)  # unregistered: RawUsageError, as above
    return (collective, name) not in UNSOUND


def fragment_soundness(collective: str, name: str) -> str:
    """``"static"``: a fragment exists and is trustworthy ground truth;
    ``"unsound"``: no static fragment can exist (see :data:`UNSOUND`)."""
    return "static" if has_fragment(collective, name) else "unsound"
