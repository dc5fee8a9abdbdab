"""Request batching: coalesce compatible small jobs into shared collectives.

Streams of tiny collectives are latency-bound: :math:`k` scalar broadcasts
cost :math:`k\\cdot\\alpha\\log p`, one broadcast of a :math:`k`-tuple
:math:`\\alpha\\log p` (the IR's ``batch_bcasts`` pass).  The service applies
this *across jobs*: queued jobs of the same collective *shape* are popped as
one group and executed as a single shared collective.

Shapes
------
- ``("bcast", root)`` — payloads are tupled at the root; every job's result
  is its element of the received tuple.
- ``("allreduce", op)`` — each job contributes a vector slot.  If ``op``
  is a NumPy ufunc and every job has two values or more, all of one
  integer or bool dtype, each rank folds its slices (an empty one padded)
  with one call of the ufunc's ``reduceat`` and the partials travel as one
  array reduced by ``op`` itself.  Otherwise a derived op merges the partials,
  skipping ``None`` slots.  Exact (bit-identical across membership sizes) for
  closed discrete domains like ints; floating-point jobs see the usual
  reassociation caveat and should not be batched when bitwise
  reproducibility across shrinks matters.

``"call"`` and ``"epochs"`` jobs have shape ``None`` and never coalesce.
"""

from __future__ import annotations

import functools
import itertools
from typing import Any, Optional, Sequence

import numpy as np

from repro.mpi.ops import user_op
from repro.service.jobs import ClusterError, Job


def shape_of(job: Job) -> Optional[tuple]:
    """Batching key: jobs with equal non-``None`` shapes may coalesce."""
    if job.kind == "bcast":
        return ("bcast", job.root)
    if job.kind == "allreduce":
        # keyed by op identity: builtin ops are singletons, and two distinct
        # user_op objects are not provably the same function
        return ("allreduce", id(job.op))
    return None


def batch_label(jobs: Sequence[Job]) -> str:
    """Trace label for the shared collective of a coalesced group."""
    if len(jobs) == 1:
        return jobs[0].label
    return "batch:" + "+".join(job.label for job in jobs)


def int_dtype(values: tuple) -> Optional[np.dtype]:
    """The one integer or bool dtype of an allreduce job's values, or
    ``None``; taken at submission from all of them, so every rank agrees.
    One scalar type keeps mixed folds (``np.int32(1) + 5``) out, and the
    dtype check ints beyond int64."""
    types = set(map(type, values))
    if len(types) != 1:
        return None
    (scalar,) = types
    scalar = {int: np.int_, bool: np.bool_}.get(scalar, scalar)
    if not issubclass(scalar, (np.integer, np.bool_)):
        return None
    dtype = np.asarray(values).dtype
    return dtype if dtype.type is scalar else None


def _array_plan(jobs: Sequence[Job], fn, size: int) -> Optional[tuple]:
    """``(dtype, pads)`` if the group reduces with the ufunc ``fn``: every
    job has two values or more (a lone value is its own result, not a NumPy
    scalar) of one dtype that ``fn`` maps to itself (not ``LAND`` on ints).
    ``pads[i]`` is what a rank holding none of job i's values contributes:
    a value of the job that ``fn`` folds to itself (any, for ``MAX``,
    ``MIN``, the ands and ors), else ``fn``'s identity (``SUM``, ``PROD``,
    the xors).  Taken from the whole values: every rank decides alike."""
    dtype = jobs[0].dtype
    if (dtype is None or not isinstance(fn, np.ufunc)
            or {job.dtype for job in jobs} != {dtype}
            or min(len(job.values) for job in jobs) < 2
            or f"{dtype.char}{dtype.char}->{dtype.char}" not in fn.types):
        return None
    pads = [() if len(job.values) >= size else _pad(job.values[:1], fn, dtype)
            for job in jobs]
    return None if None in pads else (dtype, pads)


def _pad(first: tuple, fn, dtype) -> Optional[tuple]:
    v = np.array(first, dtype)
    if fn(v, v, dtype=dtype)[0] == v[0]:
        return first
    return None if fn.identity is None else (fn.identity,)


def run_batch(comm, jobs: Sequence[Job]) -> list[tuple[str, Any]]:
    """Execute one coalesced group on the job communicator.

    Runs on every service rank (SPMD); returns one ``("ok", value)`` /
    ``("err", exc)`` outcome per job, aligned with ``jobs``.  MPI-level
    failures propagate (the resilient scope owns recovery); only per-job
    *semantic* errors are captured as outcomes.
    """
    raw = comm.raw
    kind = jobs[0].kind
    if kind == "bcast":
        root = jobs[0].root
        if root >= raw.size:
            exc = ClusterError(
                f"bcast root {root} exceeds the current membership "
                f"({raw.size} ranks after shrink); submit roots below the "
                f"minimum membership the cluster may shrink to"
            )
            return [("err", exc)] * len(jobs)
        payload = (tuple(job.payload for job in jobs)
                   if raw.rank == root else None)
        received = comm._guard(lambda: raw.bcast(payload, root))
        return [("ok", value) for value in received]

    if kind == "allreduce":
        op = jobs[0].op
        size = raw.size
        # each rank reduces its strided slice of every job's values
        mine = [job.values[raw.rank::size] for job in jobs]
        plan = _array_plan(jobs, op.fn, size)
        if plan is not None:
            # one kernel call folds every slice, empty ones padded, and the
            # job's own op merges the partials; dtype= keeps the fold's
            # type: bools stay bools
            dtype, pads = plan
            mine = [m or pad for m, pad in zip(mine, pads)]
            starts = list(itertools.accumulate(map(len, mine[:-1]), initial=0))
            contribs = op.fn.reduceat(
                np.fromiter(itertools.chain.from_iterable(mine), dtype),
                starts, dtype=dtype)
            merge = op
        else:
            # an empty slice contributes None, absorbed by the merge op
            contribs = [functools.reduce(op, m) if m else None for m in mine]
            merge = user_op(
                lambda a, b: [y if x is None else x if y is None else op(x, y)
                              for x, y in zip(a, b)],
                commutative=op.commutative, name=f"batch<{op.name}>",
                identity=[None] * len(jobs))
        merged = comm._guard(lambda: raw.allreduce(contribs, merge))
        return [("ok", value) for value in merged]

    raise ClusterError(f"job kind {kind!r} has no batch execution")
