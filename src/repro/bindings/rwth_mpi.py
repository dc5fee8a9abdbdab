"""RWTH-MPI-style bindings emulation (Demiralp et al., paper §II).

Characteristic design, kept faithful:

- full STL support for send/receive buffers via **overloads** at several
  abstraction levels (here: optional arguments), often allowing counts to be
  omitted — in which case the library performs *additional communication* to
  compute them;
- the count-inferring ``all_gather_varying`` overload works **in-place
  only**: the caller's buffer must already hold the local block at the
  correct global position, which forces users to exchange counts manually
  anyway (the paper's Footnote 2 example);
- automatic receive-buffer resizing in some calls, which can be disabled;
- custom static datatypes supported, but the user manages commit/free;
- large parts mirror the C interface directly, without extra safety.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from repro.mpi.context import RawComm
from repro.mpi.ops import Op


class Communicator:
    """RWTH-MPI ``mpi::communicator``-style wrapper."""

    def __init__(self, raw: RawComm):
        self.raw = raw  # the native handle is exposed, like RWTH-MPI

    @property
    def rank(self) -> int:
        return self.raw.rank

    @property
    def size(self) -> int:
        return self.raw.size

    # -- collectives with overload-style defaults --------------------------------

    def all_reduce(self, data: Any, op: Op) -> Any:
        return self.raw.allreduce(data, op)

    def all_gather(self, data: Any) -> list:
        """Fixed-size allgather; the result container is resized automatically."""
        return self.raw.allgather(data)

    def all_gather_varying(self, data: np.ndarray,
                           counts: Optional[Sequence[int]] = None,
                           resize: bool = True) -> np.ndarray:
        """Variable allgather.

        With ``counts`` given this is a straight ``MPI_Allgatherv``.  The
        count-omitting overload gathers the counts internally (one extra
        ``MPI_Allgather``) — but, like RWTH-MPI's in-place-only overload, it
        requires the caller's ``data`` to be exactly the local block and
        returns a freshly allocated result (``resize=False`` is rejected
        because the caller cannot know the total size without the counts).
        """
        data = np.asarray(data)
        if counts is None:
            if not resize:
                raise ValueError(
                    "count-inferring overload requires automatic resizing"
                )
            counts = self.raw.allgather(len(data))
        return self.raw.allgatherv(data, list(counts))

    def all_to_all_varying(self, data: np.ndarray, send_counts: Sequence[int],
                           recv_counts: Optional[Sequence[int]] = None
                           ) -> np.ndarray:
        """Variable all-to-all; omitting ``recv_counts`` triggers an internal
        count exchange (one extra ``MPI_Alltoall``)."""
        data = np.asarray(data)
        if recv_counts is None:
            recv_counts = self.raw.alltoall(list(send_counts))
        return self.raw.alltoallv(data, list(send_counts), list(recv_counts))
