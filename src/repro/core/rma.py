"""Wrapped one-sided communication: safe windows over the raw RMA substrate.

KaMPIng-flavoured conveniences on top of :mod:`repro.mpi.rma`:

- window memory is validated and coerced once at creation;
- reads return the raw :class:`~repro.mpi.rma.RmaResult`: ``wait()`` gives
  the value after the epoch's closing fence and raises before it;
- a scoped fence epoch (``with win.epoch(): ...``).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, Optional

import numpy as np

from repro.core.errors import UsageError
from repro.mpi.ops import Op, SUM
from repro.mpi.rma import RmaResult


class Window:
    """A safe handle of a collectively-created RMA window."""

    def __init__(self, comm, local: Any):
        local = np.ascontiguousarray(local)
        if local.ndim != 1:
            raise UsageError("window memory must be one-dimensional")
        self.comm = comm
        self.local = local
        self._raw = comm.raw.win_create(local)

    # -- epochs ----------------------------------------------------------------

    def fence(self) -> None:
        """Close the current access epoch (collective)."""
        self._raw.fence()

    @contextmanager
    def epoch(self) -> Iterator["Window"]:
        """Scoped fence epoch: ``with win.epoch(): win.put(...)``."""
        self.fence()
        try:
            yield self
        finally:
            self.fence()

    # -- data movement -------------------------------------------------------------

    def put(self, data: Any, target: int, offset: int = 0) -> None:
        self._raw.put(np.asarray(data, dtype=self.local.dtype), target, offset)

    def get(self, target: int, offset: int = 0,
            count: Optional[int] = None) -> RmaResult:
        return self._raw.get(target, offset, count)

    def accumulate(self, data: Any, target: int, offset: int = 0,
                   op: Op = SUM) -> None:
        self._raw.accumulate(np.asarray(data, dtype=self.local.dtype),
                             target, offset, op)

    def fetch_and_op(self, value: Any, target: int, offset: int,
                     op: Op = SUM) -> RmaResult:
        return self._raw.fetch_and_op(value, target, offset, op)

    def compare_and_swap(self, value: Any, compare: Any, target: int,
                         offset: int) -> RmaResult:
        return self._raw.compare_and_swap(value, compare, target, offset)

    def free(self) -> None:
        self._raw.free()
