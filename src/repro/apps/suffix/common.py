"""Shared pieces of the suffix-array applications."""

from __future__ import annotations

import numpy as np

from repro.apps.graphs.graph import block_bounds


def random_text(n: int, sigma: int = 4, seed: int = 1) -> np.ndarray:
    """A random text over an alphabet of size ``sigma`` (values 1..sigma).

    Value 0 is reserved as the end-of-text sentinel, like in pDCX.
    """
    rng = np.random.default_rng((seed, 0x7E47))
    return rng.integers(1, sigma + 1, size=n, dtype=np.int64)


def local_block(text: np.ndarray, p: int, rank: int) -> np.ndarray:
    """The block of ``text`` owned by ``rank`` under the balanced distribution."""
    first, last = block_bounds(len(text), p, rank)
    return text[first:last]


def suffix_array_sequential(text: np.ndarray) -> np.ndarray:
    """Sequential suffix array by prefix doubling (reference implementation)."""
    text = np.asarray(text, dtype=np.int64)
    n = len(text)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    rank = np.argsort(text, kind="stable")
    inv = np.empty(n, dtype=np.int64)
    # initial ranks: dense ranks of the characters
    sorted_chars = text[rank]
    boundaries = np.concatenate(([1], (sorted_chars[1:] != sorted_chars[:-1])
                                 .astype(np.int64)))
    dense = np.cumsum(boundaries) - 1
    inv[rank] = dense
    h = 1
    while h < n:
        second = np.full(n, -1, dtype=np.int64)
        second[: n - h] = inv[h:]
        order = np.lexsort((second, inv))
        key1, key2 = inv[order], second[order]
        boundaries = np.concatenate(
            ([1], ((key1[1:] != key1[:-1]) | (key2[1:] != key2[:-1]))
             .astype(np.int64))
        )
        dense = np.cumsum(boundaries) - 1
        inv = np.empty(n, dtype=np.int64)
        inv[order] = dense
        if dense[-1] == n - 1:
            break
        h *= 2
    sa = np.empty(n, dtype=np.int64)
    sa[inv] = np.arange(n)
    return sa
