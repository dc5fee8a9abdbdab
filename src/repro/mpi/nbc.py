"""Non-blocking collectives (MPI-3): ``ibcast``, ``iallreduce``, ``iallgather``.

A non-blocking collective is the *same operation* as its blocking twin with
completion deferred (paper §III-E): :func:`start` takes the blocking twin's
declaration from :mod:`repro.mpi.collectives` and its default schedule from
:mod:`repro.mpi.algorithms`, starts it — sends up to the first receive depart
at the call — and returns the :class:`~repro.mpi.algorithms.schedule.Run`
that drives it as the request.  After that the schedule only moves inside
``test()``/``wait()``: progress-on-test, the way real MPIs without progress
threads behave (the standard makes no asynchronous-progress guarantee, which
is exactly why ``std::future`` cannot model MPI requests).  Every step is
charged what the blocking call charges, so virtual time is the blocking
algorithm's.
"""

from __future__ import annotations

from repro.mpi import algorithms
from repro.mpi.algorithms.schedule import Run
from repro.mpi.collectives import Collective


def start(comm, call: Collective, args: tuple) -> Run:
    """Start ``call``'s default schedule as the counted operation its
    declaration names as the non-blocking twin, under that twin's tag code."""
    op, code = call.nbc
    comm._count(op)
    comm._check_usable()
    schedule = algorithms.default(call.name).schedule
    steps = schedule(comm.state.size, comm._rank, *args)
    if comm.machine.tracer is None:
        req = Run(comm, steps, code).start()
    else:
        with comm._span(op, peers=call.span_peers(args),
                        payload=call.payload(comm._rank, args)) as sp:
            req = Run(comm, steps, code).start()
            sp.set(tag=req.tag)
    auditor = comm.machine.auditor
    if auditor is not None:
        auditor.track_request(req, comm, op=op, tag=req.tag)
    return req
