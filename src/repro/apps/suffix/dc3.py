"""Distributed DC3 suffix array construction (pDCX with X=3, paper §IV-A).

The difference-cover algorithm of Kärkkäinen & Sanders, distributed:

1. **Sample sort** the mod-1/mod-2 suffixes by their character triples and
   name them densely (distributed boundary flags + exclusive scan).
2. If names collide, build the reduced string (mod-1 names then mod-2 names,
   with the canonical dummy sample when ``n ≡ 1 (mod 3)``), redistribute it
   by blocks, and **recurse**; below a threshold the reduced problem is
   gathered and solved sequentially (the standard pDCX base-case switch).
3. **Merge**: every suffix gets a comparison record ``(class, chars, ranks)``;
   the DC3 comparison rules make any two records comparable in O(1), so the
   global merge is one distributed sample sort with a custom comparator.

Records travel as structured NumPy arrays — the struct-type machinery of the
bindings at work.
"""

from __future__ import annotations

from functools import cmp_to_key
from typing import Callable

import numpy as np

from repro.apps.graphs.graph import block_bounds, block_owners
from repro.apps.suffix.common import suffix_array_sequential
from repro.apps.suffix.prefix_doubling import _dense_ranks_from_sorted
from repro.core import Communicator, send_buf, send_counts
from repro.plugins.sorter import partition

#: below this reduced-problem size, gather and solve sequentially
SEQ_THRESHOLD = 96

_REC_DTYPE = np.dtype([("key", np.int64), ("idx", np.int64)])
_MERGE_DTYPE = np.dtype([
    ("cls", np.int64), ("c0", np.int64), ("c1", np.int64),
    ("rs", np.int64), ("r1", np.int64), ("r2", np.int64), ("idx", np.int64),
])


# ---------------------------------------------------------------------------
# generic distributed sample sort over structured records
# ---------------------------------------------------------------------------

def sample_sort_records(comm: Communicator, records: np.ndarray,
                        cmp: Callable[[np.void, np.void], int],
                        seed: int = 0) -> np.ndarray:
    """Distributed sample sort of structured records under comparator ``cmp``."""
    p = comm.size
    keyfn = cmp_to_key(cmp)
    if p == 1:
        return np.array(sorted(records, key=keyfn), dtype=records.dtype)
    rng = np.random.default_rng((seed, comm.rank, 0xDC3))
    ns = int(16 * np.log2(p) + 1)
    if len(records):
        picks = records[rng.integers(0, len(records), size=ns)]
    else:
        picks = records[:0]
    gathered = comm.allgather(send_buf(picks))
    gathered = sorted(np.asarray(gathered, dtype=records.dtype), key=keyfn)
    step = max(len(gathered) // p, 1)
    splitters = gathered[step::step][: p - 1]

    def bucket_of(rec) -> int:
        lo, hi = 0, len(splitters)
        while lo < hi:
            mid = (lo + hi) // 2
            if cmp(rec, splitters[mid]) <= 0:
                hi = mid
            else:
                lo = mid + 1
        return lo

    buckets = np.array([bucket_of(rec) for rec in records], dtype=np.int64) \
        if len(records) else np.empty(0, dtype=np.int64)
    order, counts = partition(buckets, p)
    received = comm.alltoallv(send_buf(records[order]),
                              send_counts(counts.tolist()))
    received = np.asarray(received, dtype=records.dtype)
    return np.array(sorted(received, key=keyfn), dtype=records.dtype)


def _exchange_indexed(comm: Communicator, dest_idx: np.ndarray,
                      values: np.ndarray, n: int, local_n: int,
                      first: int) -> np.ndarray:
    """Deliver (index, value) pairs to the block owners of ``dest_idx``."""
    p = comm.size
    order, counts = partition(block_owners(dest_idx, n, p), p)
    payload = np.empty(2 * len(dest_idx), dtype=np.int64)
    payload[0::2] = dest_idx[order]
    payload[1::2] = values[order]
    flat = comm.alltoallv(send_buf(payload), send_counts((2 * counts).tolist()))
    incoming = np.asarray(flat, dtype=np.int64).reshape(-1, 2)
    out = np.zeros(local_n, dtype=np.int64)
    if len(incoming):
        out[incoming[:, 0] - first] = incoming[:, 1]
    return out


def _gather_solve(comm: Communicator, local_block: np.ndarray,
                  n: int) -> np.ndarray:
    """Base case: allgather the text, solve sequentially, keep the own slice."""
    text = np.asarray(comm.allgatherv(send_buf(np.asarray(local_block))),
                      dtype=np.int64)
    sa = suffix_array_sequential(text)
    first, last = block_bounds(n, comm.size, comm.rank)
    return sa[first:last]


def _halo2(comm: Communicator, local_block: np.ndarray) -> np.ndarray:
    """Local block extended by the next rank's first two entries (0-padded)."""
    p, r = comm.size, comm.rank
    raw = comm.raw
    head = np.asarray(local_block[:2], dtype=np.int64)
    if len(head) < 2:
        head = np.concatenate([head, np.zeros(2 - len(head), dtype=np.int64)])
    if r > 0:
        raw.send(head, r - 1, tag=77)
    halo = np.zeros(2, dtype=np.int64)
    if r < p - 1:
        nxt, _ = raw.recv(r + 1, tag=77)
        halo = np.asarray(nxt, dtype=np.int64)
    return np.concatenate([np.asarray(local_block, dtype=np.int64), halo])


def pdc3(comm: Communicator, local_block: np.ndarray, n: int) -> np.ndarray:
    """Distributed DC3; returns this rank's block of the suffix array."""
    p, r = comm.size, comm.rank
    if n <= max(SEQ_THRESHOLD, 4 * p):
        return _gather_solve(comm, local_block, n)

    first, last = block_bounds(n, p, r)
    ext = _halo2(comm, local_block)  # T[first .. last+2)

    # -- step 1: sort & name the difference-cover sample ----------------------
    dummy = 1 if n % 3 == 1 else 0  # canonical extra mod-1 sample at i = n
    local_pos = np.array(
        [i for i in range(first, last) if i % 3 != 0]
        + ([n] if dummy and last == n else []),
        dtype=np.int64,
    )

    def triple_key(i: int) -> int:
        c = [0, 0, 0]
        for k in range(3):
            j = i + k
            if first <= j < last + 2 and j < n:
                c[k] = int(ext[j - first])
        return (c[0] << 42) | (c[1] << 21) | c[2]

    recs = np.zeros(len(local_pos), dtype=_REC_DTYPE)
    recs["idx"] = local_pos
    recs["key"] = [triple_key(int(i)) for i in local_pos]
    recs = sample_sort_records(
        comm, recs, lambda a, b: _cmp_scalar(a["key"], b["key"]) or
        _cmp_scalar(a["idx"], b["idx"])
    )
    names, all_distinct = _dense_ranks_from_sorted(
        comm.raw, np.stack([recs["key"], np.zeros_like(recs["key"])], axis=1)
    )

    # reduced-string positions of the sorted samples
    m1 = (n + 1) // 3 + dummy  # count of mod-1 samples (incl. dummy)
    m2 = len(range(2, n, 3))
    m = m1 + m2
    red_pos = np.where(
        recs["idx"] % 3 == 1, (recs["idx"] - 1) // 3,
        m1 + (recs["idx"] - 2) // 3,
    )
    red_pos[recs["idx"] == n] = (n - 1) // 3  # dummy is the last mod-1 slot

    # -- step 2: rank the samples (directly, or via recursion) -----------------
    red_first, red_last = block_bounds(m, p, r)
    if all_distinct:
        rank_red = _exchange_indexed(comm, red_pos, names + 1, m,
                                     red_last - red_first, red_first)
    else:
        reduced = _exchange_indexed(comm, red_pos, names + 1, m,
                                    red_last - red_first, red_first)
        sa_r = pdc3(comm, reduced, m)
        # invert: rank of reduced suffix j = position in SA_R + 1
        sa_first, sa_last = block_bounds(m, p, r)
        positions = np.arange(sa_first, sa_last, dtype=np.int64)
        rank_red = _exchange_indexed(comm, sa_r, positions + 1, m,
                                     red_last - red_first, red_first)

    # -- step 3: ship sample ranks back to original-index owners ----------------
    red_idx = np.arange(red_first, red_last, dtype=np.int64)
    orig = np.where(red_idx < m1, 3 * red_idx + 1, 3 * (red_idx - m1) + 2)
    # the dummy maps to original index n; its rank is always 1 (unique
    # smallest triple), which _rank_halo hardcodes — drop it here
    mask = orig < n
    rank_by_index = _exchange_indexed(comm, orig[mask], rank_red[mask], n,
                                      last - first, first)

    # extend with the next rank's first two sample ranks (for r(i+1), r(i+2))
    rank_ext = _rank_halo(comm, rank_by_index, dummy, n, first, last)

    # -- step 4: global merge via comparator sample sort --------------------------
    merged = _build_merge_records(ext, rank_ext, first, last, n)
    merged = sample_sort_records(comm, merged, _dc3_cmp, seed=1)
    sa_local = merged["idx"]

    # rebalance to the canonical block distribution
    sa_first, sa_last = block_bounds(n, p, r)
    offset = comm.exscan_single(send_buf(len(sa_local)), _sum_op())
    offset = int(offset) if offset is not None else 0
    positions = np.arange(offset, offset + len(sa_local), dtype=np.int64)
    return _exchange_indexed(comm, positions, sa_local, n,
                             sa_last - sa_first, sa_first)


def _sum_op():
    from repro.core import op
    from repro.mpi.ops import SUM

    return op(SUM)


def _cmp_scalar(a, b) -> int:
    return -1 if a < b else (1 if a > b else 0)


def _rank_halo(comm: Communicator, rank_local: np.ndarray, dummy: int,
               n: int, first: int, last: int) -> np.ndarray:
    """Rank array over [first, last+2), with ranks past n−1 defaulting to 0.

    The canonical dummy sample at index n keeps its (smallest) real rank,
    which the last rank received during step 3.
    """
    p, r = comm.size, comm.rank
    raw = comm.raw
    head = rank_local[:2]
    if len(head) < 2:
        head = np.concatenate([head, np.zeros(2 - len(head), dtype=np.int64)])
    if r > 0:
        raw.send(np.asarray(head, dtype=np.int64), r - 1, tag=78)
    halo = np.zeros(2, dtype=np.int64)
    if r < p - 1:
        nxt, _ = raw.recv(r + 1, tag=78)
        halo = np.asarray(nxt, dtype=np.int64)
    elif dummy:
        halo[0] = 1  # the dummy (all-zero triple) always receives rank 1
    return np.concatenate([np.asarray(rank_local, dtype=np.int64), halo])


def _build_merge_records(ext: np.ndarray, rank_ext: np.ndarray, first: int,
                         last: int, n: int) -> np.ndarray:
    """One DC3 comparison record per locally-owned suffix."""
    count = last - first
    recs = np.zeros(count, dtype=_MERGE_DTYPE)
    for k in range(count):
        i = first + k
        recs[k]["cls"] = i % 3
        recs[k]["c0"] = ext[k]
        recs[k]["c1"] = ext[k + 1] if i + 1 < n else 0
        recs[k]["rs"] = rank_ext[k]
        recs[k]["r1"] = rank_ext[k + 1] if i + 1 <= n else 0
        recs[k]["r2"] = rank_ext[k + 2] if i + 2 <= n else 0
        recs[k]["idx"] = i
    return recs


def _dc3_cmp(a, b) -> int:
    """The DC3 merge comparison rules (total order over all suffixes)."""
    ca, cb = int(a["cls"]), int(b["cls"])
    if ca != 0 and cb != 0:
        return _cmp_scalar(int(a["rs"]), int(b["rs"]))
    if ca == 0 and cb == 0:
        return (_cmp_scalar(int(a["c0"]), int(b["c0"]))
                or _cmp_scalar(int(a["r1"]), int(b["r1"])))
    if ca == 0:
        return _cmp_mixed(a, b)
    return -_cmp_mixed(b, a)


def _cmp_mixed(z, s) -> int:
    """Compare a mod-0 record ``z`` with a sample record ``s``."""
    if int(s["cls"]) == 1:
        return (_cmp_scalar(int(z["c0"]), int(s["c0"]))
                or _cmp_scalar(int(z["r1"]), int(s["r1"])))
    return (_cmp_scalar(int(z["c0"]), int(s["c0"]))
            or _cmp_scalar(int(z["c1"]), int(s["c1"]))
            or _cmp_scalar(int(z["r2"]), int(s["r2"])))
