"""``DistributedArray`` — a block-distributed array over KaMPIng calls.

Each rank owns one local NumPy block; global order is rank order.  All bulk
operations are implemented directly on the bindings — every method's body is
a short composition of wrapped MPI calls, demonstrating the "algorithmic
toolbox on top of KaMPIng" the paper's conclusion sketches.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

import numpy as np

from repro.core import (
    Communicator,
    op as op_param,
    root as root_param,
    send_buf,
    send_counts,
)
from repro.core.errors import UsageError
from repro.mpi.ops import MAX, MIN, SUM, Op


class DistributedArray:
    """A distributed array: one contiguous block per rank, ordered by rank."""

    def __init__(self, comm: Communicator, local: Any):
        self.comm = comm
        self.local = np.asarray(local)
        if self.local.ndim != 1:
            raise UsageError("DistributedArray blocks must be 1-D")

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_local(cls, comm: Communicator, local: Any) -> "DistributedArray":
        """Wrap per-rank blocks as a distributed array (global order = rank order)."""
        return cls(comm, local)

    @classmethod
    def generate(cls, comm: Communicator, n_global: int,
                 fn: Callable[[np.ndarray], np.ndarray]) -> "DistributedArray":
        """Materialize ``fn(global_indices)`` with balanced blocks, no communication."""
        from repro.apps.graphs.graph import block_bounds

        first, last = block_bounds(n_global, comm.size, comm.rank)
        return cls(comm, fn(np.arange(first, last, dtype=np.int64)))

    @classmethod
    def scatter_from(cls, comm: Communicator, data: Optional[np.ndarray],
                     root: int = 0) -> "DistributedArray":
        """Distribute a root-resident array into balanced blocks (scatterv)."""
        from repro.apps.graphs.graph import block_bounds

        if comm.rank == root:
            data = np.asarray(data)
            n = len(data)
            counts = [
                block_bounds(n, comm.size, r)[1] - block_bounds(n, comm.size, r)[0]
                for r in range(comm.size)
            ]
            block = comm.scatterv(send_buf(data), send_counts(counts),
                                  root_param(root))
        else:
            block = comm.scatterv(root_param(root))
        return cls(comm, block)

    # -- introspection -------------------------------------------------------

    @property
    def local_size(self) -> int:
        return len(self.local)

    def size(self) -> int:
        """Global element count (one allreduce)."""
        return int(self.comm.allreduce_single(send_buf(self.local_size),
                                              op_param(SUM)))

    def global_offset(self) -> int:
        """Global index of this rank's first element (one exscan)."""
        off = self.comm.exscan_single(send_buf(self.local_size), op_param(SUM))
        return int(off)

    # -- elementwise ----------------------------------------------------------

    def map(self, fn: Callable[[np.ndarray], np.ndarray]) -> "DistributedArray":
        """Apply a vectorized function to every element (no communication)."""
        return DistributedArray(self.comm, fn(self.local))

    def filter(self, pred: Callable[[np.ndarray], np.ndarray]
               ) -> "DistributedArray":
        """Keep elements where the vectorized predicate holds (local)."""
        mask = np.asarray(pred(self.local), dtype=bool)
        return DistributedArray(self.comm, self.local[mask])

    # -- reductions ------------------------------------------------------------

    def reduce(self, operation: Op = SUM) -> Any:
        """Global reduction; the result is available on every rank."""
        if self.local_size:
            local = self.local[0]
            for x in self.local[1:]:
                local = operation(local, x)
        else:
            if operation.identity is None:
                raise UsageError(
                    "reduce over a possibly-empty block needs an op with an "
                    "identity"
                )
            local = operation.identity
        return self.comm.allreduce_single(send_buf(local), op_param(operation))

    def sum(self) -> Any:
        return self.reduce(SUM)

    def min(self) -> Any:
        return self.reduce(MIN)

    def max(self) -> Any:
        return self.reduce(MAX)

    # -- reordering --------------------------------------------------------------

    def sort(self) -> "DistributedArray":
        """Global sort (sample sort via the sorter plugin's algorithm)."""
        from repro.plugins.sorter import DistributedSorter

        return DistributedArray(
            self.comm, DistributedSorter.sort(self.comm, self.local)
        )

    def rebalance(self) -> "DistributedArray":
        """Redistribute into balanced blocks, preserving global order."""
        from repro.apps.graphs.graph import block_owners
        from repro.plugins.sorter import partition

        n = self.size()
        offset = self.global_offset()
        p = self.comm.size
        positions = offset + np.arange(self.local_size)
        order, counts = partition(block_owners(positions, n, p), p)
        block = self.comm.alltoallv(send_buf(self.local[order]),
                                    send_counts(counts.tolist()))
        return DistributedArray(self.comm, np.asarray(block))

    # -- materialization -----------------------------------------------------------

    def collect(self, root: int = 0) -> Optional[np.ndarray]:
        """Gather the full array at the root (None elsewhere)."""
        out = self.comm.gatherv(send_buf(self.local), root_param(root))
        return np.asarray(out) if out is not None else None

    def allcollect(self) -> np.ndarray:
        """Gather the full array on every rank."""
        return np.asarray(self.comm.allgatherv(send_buf(self.local)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"DistributedArray(rank={self.comm.rank}/{self.comm.size}, "
                f"local={self.local_size})")
