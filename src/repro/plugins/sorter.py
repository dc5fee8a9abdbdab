"""STL-style distributed sorter plugin (paper §IV-A / §V).

``comm.sort(data)`` sorts a distributed array globally: afterwards every
rank holds a locally-sorted block and blocks are ordered by rank.  The
implementation is the textbook sample sort of the paper's Fig. 7 with the
paper's oversampling factor ``16·log₂(p) + 1``.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.core.named_params import send_buf, send_counts
from repro.core.plugins import CommunicatorPlugin, plugin_method


class DistributedSorter(CommunicatorPlugin):
    """Adds ``sort`` (sample sort) to a communicator."""

    @plugin_method
    def sort(self, data: Any, *, seed: Optional[int] = None,
             charge_compute: bool = True) -> np.ndarray:
        """Globally sort ``data`` (one block per rank); returns the new block.

        ``charge_compute`` also bills the local sorting work to the virtual
        clock so simulated times include computation, not just messages.
        """
        data = np.asarray(data)
        p = self.size
        if p == 1:
            out = sort_keys(data)
            if charge_compute:
                _charge_sort(self, len(out))
            return out

        rng = np.random.default_rng(
            seed if seed is not None else (0xC0FFEE ^ self.rank)
        )
        num_samples = int(16 * np.log2(p) + 1)
        if len(data):
            local_samples = rng.choice(data, size=num_samples, replace=True)
        else:
            local_samples = data[:0]
        all_samples = np.sort(self.allgather(send_buf(local_samples)))
        if len(all_samples) == 0:
            splitters = all_samples
        else:
            step = max(len(all_samples) // p, 1)
            splitters = all_samples[step::step][: p - 1]

        order, counts = partition(
            np.searchsorted(splitters, data, side="right"), p)
        if charge_compute:
            _charge_sort(self, len(data))
        received = self.alltoallv(send_buf(data[order]),
                                  send_counts(counts.tolist()))
        out = sort_keys(received)
        if charge_compute:
            _charge_sort(self, len(out))
        return out


def sort_keys(a: Any) -> np.ndarray:
    """``a`` sorted ascending, bit for bit what a stable sort returns.

    Equal integers and booleans have identical bits, so numpy's default
    sort, far faster on them, gives the stable result.  Every other dtype
    sorts stably: floats hold ±0.0 and NaN payloads an unstable sort may
    reorder.
    """
    a = np.asarray(a)
    return np.sort(a) if a.dtype.kind in "biu" else np.sort(a, kind="stable")


def partition(owners: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Group elements by owner rank: ``(order, counts)``.

    ``order`` is the stable argsort of ``owners``, taken on the owners
    narrowed to the smallest type holding ``p − 1``: the same permutation,
    on numpy's radix path up to p = 2¹⁶.  ``counts[r]`` is the number of
    elements rank ``r`` owns.  An owner outside ``[0, p)`` raises.
    """
    counts = np.bincount(owners, minlength=p)
    if len(counts) > p:
        raise ValueError(f"owner {len(counts) - 1} is not a rank of {p}")
    narrow = owners.astype(np.min_scalar_type(p - 1), copy=False)
    return np.argsort(narrow, kind="stable"), counts


def _charge_sort(comm, n: int, per_item: float = 4.0e-9) -> None:
    """Bill ~O(n log n) comparison-sort work to the virtual clock.

    Module-level so ``DistributedSorter.sort`` works duck-typed on any
    communicator (the DistributedArray container borrows it that way).
    """
    if n > 1:
        comm.compute(per_item * n * np.log2(n))
