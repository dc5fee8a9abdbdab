"""PMPI-style profiling helpers.

The paper validates its "only the expected MPI calls are issued" property
through MPI's profiling interface (Section III-H).  The runtime counts every
public :class:`~repro.mpi.context.RawComm` call per rank; this module offers
the assertion helpers tests use on top of those counters.

With tracing enabled (``run_mpi(..., trace=True)``), :func:`expect_calls`
also accepts :class:`~repro.mpi.tracing.CallSpec` values (built with
:func:`~repro.mpi.tracing.calls`) that additionally pin down byte volumes
and peer sets, turning "the right calls happened" into "the right *bytes*
went to the right *ranks*".
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from typing import Iterator, Union

from repro.mpi.context import RawComm
from repro.mpi.errors import RawUsageError
from repro.mpi.tracing import CallSpec


@contextmanager
def expect_calls(comm: RawComm,
                 **expected: Union[int, CallSpec]) -> Iterator[None]:
    """Assert that the wrapped block issues exactly the given raw MPI calls.

    Example::

        with expect_calls(raw, allgather=1, allgatherv=1):
            kamping_comm.allgatherv(send_buf(v))   # count inference + exchange

    Any raw call kind not listed must not occur at all.  Values may be plain
    counts or :func:`repro.mpi.tracing.calls` specs; the latter additionally
    assert byte volumes and peer sets and require the run to be traced::

        with expect_calls(raw, allgather=1,
                          allgatherv=calls(1, recvd=total_bytes)):
            kamping_comm.allgatherv(send_buf(v))
    """
    tracer = comm.machine.tracer
    specs = {op: v for op, v in expected.items() if isinstance(v, CallSpec)}
    if specs and tracer is None:
        raise RawUsageError(
            "expect_calls with byte/peer specs needs a traced run "
            "(run_mpi(..., trace=True)); only plain counts work untraced"
        )
    before = Counter(comm.machine.profile[comm.world_rank])
    if specs:
        events_before = len(tracer.events_for(comm.world_rank))
    yield
    after = Counter(comm.machine.profile[comm.world_rank])
    delta = after - before
    problems = []
    for op, want in expected.items():
        n = want.count if isinstance(want, CallSpec) else want
        if delta.get(op, 0) != n:
            problems.append(f"expected {n} × {op}, saw {delta.get(op, 0)}")
    for op, n in delta.items():
        if op not in expected:
            problems.append(f"unexpected raw call: {n} × {op}")
    if specs:
        new_events = tracer.events_for(comm.world_rank)[events_before:]
        for op, spec in specs.items():
            events = [e for e in new_events if e.op == op]
            problems.extend(spec.check(op, events, check_count=False))
    if problems:
        raise AssertionError(
            "raw MPI call profile mismatch: " + "; ".join(sorted(problems))
        )


def call_delta(comm: RawComm, before: Counter) -> Counter:
    """Difference between the rank's current counters and a snapshot."""
    return Counter(comm.machine.profile[comm.world_rank]) - before


def snapshot(comm: RawComm) -> Counter:
    """Snapshot the rank's call counters."""
    return Counter(comm.machine.profile[comm.world_rank])
