"""MPL-style bindings emulation (paper §II).

MPL's signature feature is its **layout** system: datatypes are built
programmatically as views over contiguous memory and every call takes
explicit layouts.  Faithful to the documented behaviour:

- variable-size collectives (``allgatherv``/``alltoallv``) do
  **not** pass counts/displacements to the corresponding MPI collective;
  they build per-peer derived datatypes and route through ``MPI_Alltoallw``
  internally — the documented cause of MPL's overhead and poor scalability
  (paper §II/§IV-B citing Ghosh et al.);
- no default parameters: the caller always constructs layouts, which is why
  MPL implementations are the *longest* in the paper's Table I;
- no serialization support and no error handling (errors propagate raw).
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.mpi.context import RawComm
from repro.mpi.ops import Op


class layout:
    """Base class for MPL layouts: a typed view description."""


class contiguous_layout(layout):
    """``mpl::contiguous_layout<T>(count)``."""

    def __init__(self, count: int):
        self.count = int(count)

    def extent(self) -> int:
        return self.count


class layouts:
    """``mpl::layouts<T>``: one layout per peer (for v-collectives)."""

    def __init__(self, per_peer: Sequence[layout]):
        self.per_peer = list(per_peer)

    def __getitem__(self, i: int) -> layout:
        return self.per_peer[i]


class communicator:
    """MPL's ``communicator``; does not expose the native MPI handle."""

    def __init__(self, raw: RawComm):
        self._raw = raw  # deliberately private: MPL hides native handles

    def rank(self) -> int:
        return self._raw.rank

    def size(self) -> int:
        return self._raw.size

    # -- collectives ---------------------------------------------------------

    def allreduce(self, op: Op, data: Any) -> Any:
        return self._raw.allreduce(data, op)

    def allgather(self, senddata: Any) -> list:
        return self._raw.allgather(senddata)

    def alltoall(self, senddata: Sequence[Any]) -> list:
        return self._raw.alltoall(senddata)

    # -- v-collectives: the alltoallw path -------------------------------------

    def allgatherv(self, senddata: np.ndarray, sendl: layout,
                   recvls: layouts) -> np.ndarray:
        """Variable allgather via per-peer derived datatypes.

        Internally performs an alltoallw-style exchange (every peer gets the
        same block, described by a datatype), not ``MPI_Allgatherv`` — MPL's
        documented behaviour and overhead source.
        """
        p = self.size()
        block = np.asarray(senddata)[: sendl.extent()]
        received = self._raw.alltoallw([block] * p)
        parts = [np.asarray(received[i])[: recvls[i].extent()] for i in range(p)]
        return np.concatenate(parts) if parts else block[:0]

    def alltoallv(self, senddata: np.ndarray, sendls: layouts,
                  recvls: layouts) -> np.ndarray:
        """Variable all-to-all; send layouts select per-peer blocks."""
        p = self.size()
        sendbuf = np.asarray(senddata)
        blocks = []
        offset = 0
        for i in range(p):
            n = sendls[i].extent()
            blocks.append(sendbuf[offset: offset + n])
            offset += n
        received = self._raw.alltoallw(blocks)
        parts = [np.asarray(received[i])[: recvls[i].extent()] for i in range(p)]
        return np.concatenate(parts) if parts else sendbuf[:0]
