"""One-sided communication (RMA): windows, put/get/accumulate, fence epochs.

The paper's conclusion plans to "extend the standard coverage"; one-sided
communication is the largest MPI chapter the core bindings do not cover yet
(boost-mpi3 supports it, §II).  This is the raw substrate, with MPI's
active-target semantics: an operation takes effect, and a read's value is
defined, when the fence that closes its epoch returns.

- ``win_create`` gathers every rank's ``(length, itemsize)`` once;
- ``put`` / ``get`` / ``accumulate`` / ``fetch_and_op`` /
  ``compare_and_swap`` check bounds (and that an op is predefined, as MPI
  requires) and queue one record for the target at the origin: they never
  wait and charge the origin one ``overhead``;
- ``fence`` (``MPI_Win_fence``) and ``free`` exchange the records in one
  internal ``alltoall``; each target applies them in (origin rank, issue
  order), and a second ``alltoall`` returns the values read;
- a read returns an :class:`RmaResult`, the paper's non-blocking result
  (§III-E): ``wait()`` gives the value after that fence, raises before it.

No rank reads another rank's memory, so one code path serves every
backend, and every result is a function of the program (the lowest origin
rank wins a ``compare_and_swap`` race).  Passive-target locks
(``MPI_Win_lock``) are not provided.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.mpi.errors import RawUsageError
from repro.mpi.ops import BUILTIN_OPS, Op, SUM
from repro.mpi.tracing import _NULL_SPAN


_PENDING = object()


class RmaResult:
    """The value of one RMA read, defined once its epoch's fence returns."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value: Any = _PENDING

    def wait(self) -> Any:
        if self._value is _PENDING:
            raise RawUsageError(
                "an RMA read is complete only after the fence that closes "
                "its epoch; call wait() after that fence"
            )
        return self._value


class RawWindow:
    """One rank's handle of a collectively-created RMA window."""

    def __init__(self, comm, local: np.ndarray):
        self.comm = comm
        if not isinstance(local, np.ndarray) or local.ndim != 1:
            raise RawUsageError("window memory must be a 1-D NumPy array")
        self.local = local
        entry = (len(local), local.itemsize)
        #: every rank's ``(length, itemsize)``, for the bounds checks
        self._shapes = comm._coll_algo("allgather", (entry,)).fn(comm, entry)
        self._reset()

    def _reset(self) -> None:
        # per target: the records issued in the open epoch, and the results
        # of the reads among them, in issue order
        self._queued: list[list[tuple]] = [[] for _ in range(self.comm.size)]
        self._pending: list[list[RmaResult]] = [[] for _ in self._queued]

    # -- epoch management ----------------------------------------------------

    def fence(self) -> None:
        """Close the current epoch: every queued operation takes effect."""
        self.comm._count("win_fence")
        self._complete("win_fence")

    def free(self) -> None:
        """Release the window, completing its epoch (``MPI_Win_free``)."""
        self.comm._count("win_free")
        self._complete("win_free")

    def _complete(self, op: str) -> None:
        comm, queued, pending = self.comm, self._queued, self._pending
        self._reset()
        with (_NULL_SPAN if comm.machine.tracer is None else
              comm._span(op, peers="all")):
            records = comm._coll_algo("alltoall", (queued,)).fn(comm, queued)
            reads = [self._apply(batch) for batch in records]  # by origin
            replies = comm._coll_algo("alltoall", (reads,)).fn(comm, reads)
        for results, values in zip(pending, replies):
            for result, value in zip(results, values):
                result._value = value

    def _apply(self, records: list) -> list:
        """Apply one origin's records in issue order; the values read."""
        arr, values = self.local, []
        for op, offset, a, b in records:
            if op == "put":
                arr[offset: offset + len(a)] = a
            elif op == "accumulate":
                span = slice(offset, offset + len(a))
                arr[span] = b(arr[span], a)
            elif op == "get":
                values.append(arr[offset: offset + a].copy())
            else:
                values.append(arr[offset].item())
                if op == "fetch_and_op":
                    arr[offset] = b(arr[offset], a)
                elif values[-1] == b:  # compare_and_swap
                    arr[offset] = a
        return values

    # -- one-sided data movement ------------------------------------------------

    def _shape(self, target: int) -> tuple[int, int]:
        """The target's ``(length, itemsize)``."""
        if not 0 <= target < len(self._shapes):
            raise RawUsageError(f"rank {target} exposes no window memory")
        return self._shapes[target]

    def _issue(self, record: tuple, target: int, count: int, sent: int = 0,
               read: bool = False) -> Optional[RmaResult]:
        """Check bounds and queue ``record`` for ``target``; never waits."""
        op, offset = record[0], record[1]
        length, itemsize = self._shape(target)
        if offset < 0 or count < 0 or offset + count > length:
            raise RawUsageError(
                f"{op} of {count} elements at offset {offset} exceeds the "
                f"target window of size {length}"
            )
        comm = self.comm
        with (_NULL_SPAN if comm.machine.tracer is None else
              comm._span("win_" + op, peers=(target,), sent=sent)) as sp:
            self._queued[target].append(record)
            comm.clock.charge_overhead()
            if not read:
                return None
            sp.set(recvd=count * itemsize)
        result = RmaResult()
        self._pending[target].append(result)
        return result

    def put(self, data: np.ndarray, target: int, offset: int = 0) -> None:
        """Write ``data`` into the target's window at ``offset``."""
        self.comm._count("win_put")
        data = np.array(data)  # the origin may reuse its buffer at once
        self._issue(("put", offset, data, None), target, len(data),
                    data.nbytes)

    def get(self, target: int, offset: int = 0,
            count: Optional[int] = None) -> RmaResult:
        """Read ``count`` elements from the target's window at ``offset``."""
        self.comm._count("win_get")
        count = self._shape(target)[0] - offset if count is None else count
        return self._issue(("get", offset, count, None), target, count,
                           read=True)

    def accumulate(self, data: np.ndarray, target: int, offset: int = 0,
                   op: Op = SUM) -> None:
        """Elementwise remote update (``MPI_Accumulate``)."""
        self.comm._count("win_accumulate")
        data = np.array(data)
        self._issue(("accumulate", offset, data, _predefined(op)), target,
                    len(data), data.nbytes)

    def fetch_and_op(self, value: Any, target: int, offset: int,
                     op: Op = SUM) -> RmaResult:
        """Read-modify-write of one element (``MPI_Fetch_and_op``)."""
        self.comm._count("win_fetch_and_op")
        return self._issue(("fetch_and_op", offset, value, _predefined(op)),
                           target, 1, self._shape(target)[1], read=True)

    def compare_and_swap(self, value: Any, compare: Any, target: int,
                         offset: int) -> RmaResult:
        """Compare-and-swap of one element (``MPI_Compare_and_swap``)."""
        self.comm._count("win_compare_and_swap")
        return self._issue(("compare_and_swap", offset, value, compare),
                           target, 1, self._shape(target)[1], read=True)


def _predefined(op: Op) -> Op:
    """``op`` if it is one of ``BUILTIN_OPS``: a target applies the
    operations it is sent, and MPI allows only predefined ops there."""
    if op not in BUILTIN_OPS.values():
        raise RawUsageError(
            f"one-sided operations take a predefined op "
            f"({', '.join(BUILTIN_OPS)}), got {op!r}")
    return op
