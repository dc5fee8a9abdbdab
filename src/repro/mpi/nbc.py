"""Non-blocking collectives (MPI-3): ``ibcast``, ``iallreduce``, ``iallgather``.

A non-blocking collective is the *same operation* as its blocking twin with
completion deferred (paper §III-E): each entry point takes the blocking
collective's default schedule from :mod:`repro.mpi.algorithms`, starts it —
sends up to the first receive depart at the call — and returns the
:class:`~repro.mpi.algorithms.schedule.Run` that drives it as the request.
After that the schedule only moves inside ``test()``/``wait()``:
progress-on-test, the way real MPIs without progress threads behave (the
standard makes no asynchronous-progress guarantee, which is exactly why
``std::future`` cannot model MPI requests).  Every step is charged what the
blocking call charges, so virtual time is the blocking algorithm's.
"""

from __future__ import annotations

from typing import Any

from repro.mpi import algorithms
from repro.mpi.algorithms.schedule import Run
from repro.mpi.errors import RawUsageError
from repro.mpi.ops import Op

CODE_IBCAST = 17
CODE_IALLREDUCE = 18
CODE_IALLGATHER = 19


def _start(comm, op: str, code: int, collective: str, args: tuple, *,
           peers, payload: Any) -> Run:
    """Start ``collective``'s default schedule as the counted operation ``op``."""
    comm._count(op)
    comm._check_usable()
    schedule = algorithms.default(collective).schedule
    with comm._span(op, peers=peers, payload=payload) as sp:
        req = Run(comm, schedule(comm.size, comm.rank, *args), code).start()
        sp.set(tag=req.tag)
    auditor = comm.machine.auditor
    if auditor.enabled:
        auditor.track_request(req, comm, op=op, tag=req.tag)
    return req


def ibcast(comm, payload: Any, root: int = 0) -> Run:
    """Start a non-blocking broadcast (``MPI_Ibcast``)."""
    return _start(comm, "ibcast", CODE_IBCAST, "bcast", (payload, root),
                  peers=(root,),
                  payload=payload if comm.rank == root else None)


def iallreduce(comm, value: Any, op: Op) -> Run:
    """Start a non-blocking allreduce (``MPI_Iallreduce``)."""
    if not op.commutative:
        raise RawUsageError(
            "iallreduce supports commutative operations only; use the "
            "blocking allreduce for ordered reductions"
        )
    return _start(comm, "iallreduce", CODE_IALLREDUCE, "allreduce",
                  (value, op), peers="all", payload=value)


def iallgather(comm, payload: Any) -> Run:
    """Start a non-blocking allgather (``MPI_Iallgather``)."""
    return _start(comm, "iallgather", CODE_IALLGATHER, "allgather",
                  (payload,), peers="all", payload=payload)
