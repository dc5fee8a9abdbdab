"""Shared helpers for the collective schedules.

The op codes are folded into the reserved negative tag space by
``RawComm._next_coll_tag``; tag *uniqueness* comes from the
per-communicator sequence number, so multi-phase schedules simply yield one
``Tag`` step per phase — every rank yields them in the same order.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.mpi.datatypes import ensure_1d_array
from repro.mpi.errors import RawTruncationError, RawUsageError
from repro.mpi.ops import Op

# Collective op codes (folded into reserved tags).
CODE_BARRIER = 0
CODE_BCAST = 1
CODE_GATHER = 2
CODE_GATHERV = 3
CODE_SCATTER = 4
CODE_SCATTERV = 5
CODE_ALLGATHER = 6
CODE_ALLGATHERV = 7
CODE_ALLTOALL = 8
CODE_ALLTOALLV = 9
CODE_ALLTOALLW = 10
CODE_REDUCE = 11
CODE_ALLREDUCE = 12
CODE_SCAN = 13
CODE_EXSCAN = 14
CODE_NEIGHBOR = 15
CODE_NEIGHBORV = 16


def _check_root(p: int, root: int) -> None:
    if not 0 <= root < p:
        raise RawUsageError(f"root {root} out of range for size {p}")


def _validate_root(comm, root: int) -> None:
    _check_root(comm.size, root)


def _fits(block: Any, src: int, limit: int, what: str) -> np.ndarray:
    """``block`` as a 1-D array, checked against the receiver's count for the
    rank it came from (``what`` names the collective and the noun it uses)."""
    block = ensure_1d_array(block)
    if len(block) > limit:
        raise RawTruncationError(
            f"{what} from rank {src} has {len(block)} items, "
            f"recvcounts allows {limit}"
        )
    return block


def _combine(op: Op, a: Any, b: Any) -> Any:
    """Apply ``op`` elementwise, preserving array-ness of the inputs."""
    if type(a) is np.ndarray and type(b) is np.ndarray:
        return op.fn(a, b)  # Op.__call__, without its frame
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return op(np.asarray(a), np.asarray(b))
    return op(a, b)


def _binomial(p: int, vr: int) -> tuple[Optional[int], list[int]]:
    """Virtual rank ``vr``'s place in the p-node binomial tree rooted at 0:
    its parent (``None`` for the root) and its children, largest subtree
    first — child ``c`` heads the virtual ranks ``[c, 2c − vr)`` below p.
    Trees fan out in that order and combine in the reverse."""
    mask = 1
    while mask < p and not vr & mask:
        mask <<= 1
    parent = vr - mask if vr else None
    children = []
    while mask > 1:
        mask >>= 1
        if vr + mask < p:
            children.append(vr + mask)
    return parent, children


def _ceil_log2(p: int) -> int:
    return max(1, (p - 1).bit_length()) if p > 1 else 0


def _tree_depth(p: int) -> int:
    """Critical-path depth of a p-node binomial tree: ⌊log₂ p⌋.

    A node at virtual rank v sits at depth popcount(v), and the maximum
    popcount over v < p is ⌊log₂ p⌋ — one less than the ⌈log₂ p⌉ *round
    count* whenever p is not a power of two.  With buffered sends the
    rounds overlap, so virtual time tracks tree depth, not round count.
    """
    return p.bit_length() - 1 if p > 1 else 0
