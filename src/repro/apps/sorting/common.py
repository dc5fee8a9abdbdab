"""Shared pieces of the sample-sort implementations (paper §IV-A).

The paper extracts all code shared between the per-binding implementations
into helpers and counts only the binding-specific remainder; these are those
helpers.  They also charge the local computation to the virtual clock so the
simulated times of Fig. 8 include CPU work, not just messages.
"""

from __future__ import annotations

import numpy as np

from repro.mpi.context import RawComm
from repro.plugins.sorter import bucket, sort_keys

#: calibrated comparison-sort cost (seconds per element per log2-level),
#: roughly matching std::sort on the paper's Skylake nodes
SORT_COST_PER_ITEM = 4.0e-9
#: linear pass cost (bucketing, partitioning)
PASS_COST_PER_ITEM = 1.5e-9


def charge_sort(raw: RawComm, n: int) -> None:
    """Bill an O(n log n) local sort to the virtual clock."""
    if n > 1:
        raw.compute(SORT_COST_PER_ITEM * n * float(np.log2(n)))


def charge_pass(raw: RawComm, n: int) -> None:
    """Bill a linear pass over n elements to the virtual clock."""
    if n:
        raw.compute(PASS_COST_PER_ITEM * n)


def num_samples_for(p: int) -> int:
    """The paper's oversampling factor: 16·log₂(p) + 1."""
    return int(16 * np.log2(p) + 1) if p > 1 else 1


def draw_samples(data: np.ndarray, num_samples: int, seed: int) -> np.ndarray:
    """Draw ``num_samples`` random local samples (with replacement)."""
    if len(data) == 0:
        return data[:0]
    rng = np.random.default_rng(0x5EED ^ seed)
    return rng.choice(data, size=num_samples, replace=True)


def select_splitters(sorted_samples: np.ndarray, p: int) -> np.ndarray:
    """Pick p−1 equidistant splitters from the sorted global sample."""
    if p == 1 or len(sorted_samples) == 0:
        return sorted_samples[:0]
    step = max(len(sorted_samples) // p, 1)
    return sorted_samples[step::step][: p - 1]


def build_buckets(raw: RawComm, data: np.ndarray,
                  splitters: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Partition ``data`` into per-destination buckets: ``(data, counts)``.

    Integer and boolean keys come back sorted within each bucket, every
    other dtype in input order (:func:`~repro.plugins.sorter.bucket`).
    """
    send_data, counts = bucket(data, splitters)
    charge_pass(raw, len(data))
    return send_data, counts.tolist()


def local_sort(raw: RawComm, data: np.ndarray) -> np.ndarray:
    """Sort a local block, charging the virtual clock."""
    charge_sort(raw, len(data))
    return sort_keys(data)
