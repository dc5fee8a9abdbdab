"""Reproducible reduce (§V-C) and the distributed sorter plugins.

The ULFM tests (§V-B, Fig. 12) live in :mod:`tests.plugins.test_ulfm`.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Communicator, extend, send_buf, op
from repro.mpi import MAX, SUM, user_op
from repro.plugins import (
    DistributedSorter,
    ReproducibleReduce,
    local_segments,
    merge_segments,
)
from repro.plugins.sorter import partition, sort_keys
from tests.conftest import runk

RRComm = extend(Communicator, ReproducibleReduce)
SortComm = extend(Communicator, DistributedSorter)


class TestSegments:
    def test_aligned_decomposition(self):
        segs = local_segments(0, np.arange(8.0), SUM)
        assert [(lvl, idx) for lvl, idx, _ in segs] == [(3, 0)]

    def test_unaligned_start(self):
        segs = local_segments(3, np.arange(5.0), SUM)
        # [3,8) -> blocks [3,4), [4,8)
        assert [(lvl, idx) for lvl, idx, _ in segs] == [(0, 3), (2, 1)]

    def test_merge_combines_siblings(self):
        left = local_segments(0, np.arange(4.0), SUM)
        right = local_segments(4, np.arange(4.0, 8.0), SUM)
        merged = merge_segments(left, right, SUM)
        assert [(lvl, idx) for lvl, idx, _ in merged] == [(3, 0)]
        assert merged[0][2] == 28.0

    def test_segment_values_canonical_tree_order(self):
        concat = user_op(lambda a, b: f"({a}{b})", commutative=False)
        segs = local_segments(0, np.array(list("abcd"), dtype=object), concat)
        assert segs[0][2] == "((ab)(cd))"


@pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
def test_reduce_reproducible_equals_fixed_tree(p):
    values = np.linspace(0.1, 7.3, 24)

    def main(comm):
        per = len(values) // comm.size
        lo = comm.rank * per
        hi = lo + per if comm.rank < comm.size - 1 else len(values)
        return comm.allreduce_reproducible(values[lo:hi], SUM)

    res = runk(main, p, comm_class=RRComm)
    assert len(set(map(float, res.values))) == 1


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=1, max_value=60),
)
def test_p_independence_property(seed, n):
    """The flagship §V-C invariant: identical result for every rank count."""
    rng = np.random.default_rng(seed)
    values = (rng.random(n) * 1e10).astype(np.float64)

    def main(comm, vals):
        p, r = comm.size, comm.rank
        per = len(vals) // p
        lo = r * per
        hi = lo + per if r < p - 1 else len(vals)
        return comm.allreduce_reproducible(np.asarray(vals[lo:hi]), SUM)

    results = set()
    for p in (1, 2, 3, 4, 5):
        res = runk(main, p, args=(values,), comm_class=RRComm)
        results.update(map(float, res.values))
    assert len(results) == 1


def test_naive_allreduce_is_not_reproducible_but_tree_is():
    """Sanity: the problem §V-C solves actually exists on this data."""
    rng = np.random.default_rng(7)
    values = (rng.random(4000) * 1e12).astype(np.float64)

    def naive(comm, vals):
        p, r = comm.size, comm.rank
        per = len(vals) // p
        lo, hi = r * per, (r + 1) * per if r < p - 1 else len(vals)
        return comm.allreduce_single(send_buf(float(np.sum(vals[lo:hi]))),
                                     op(SUM))

    naive_results = set()
    for p in (1, 2, 3, 5, 7):
        naive_results.add(float(runk(naive, p, args=(values,)).values[0]))
    assert len(naive_results) > 1  # rounding differs with p


def test_reduce_reproducible_empty_needs_identity():
    def main(comm):
        return comm.reduce_reproducible(np.empty(0), SUM)

    res = runk(main, 1, comm_class=RRComm)
    assert res.values[0] == 0  # SUM identity


def test_reduce_reproducible_max_op():
    def main(comm):
        vals = np.array([comm.rank * 1.5, comm.rank - 3.0])
        return comm.allreduce_reproducible(vals, MAX)

    res = runk(main, 4, comm_class=RRComm)
    assert all(v == 4.5 for v in res.values)


# ---------------------------------------------------------------------------
# sorter  (ULFM tests moved to tests/plugins/test_ulfm.py)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [1, 2, 4, 7])
def test_sorter_global_order(p):
    def main(comm):
        rng = np.random.default_rng(comm.rank + 100)
        return comm.sort(rng.integers(0, 10**6, size=500))

    blocks = runk(main, p, comm_class=SortComm).values
    merged = np.concatenate(blocks)
    assert len(merged) == 500 * p
    assert (np.diff(merged) >= 0).all()


def test_sorter_matches_numpy():
    def main(comm, data_all):
        per = len(data_all) // comm.size
        lo = comm.rank * per
        hi = lo + per if comm.rank < comm.size - 1 else len(data_all)
        return comm.sort(np.asarray(data_all[lo:hi]))

    rng = np.random.default_rng(0)
    data = rng.integers(-10**9, 10**9, size=3000)
    res = runk(main, 6, args=(data,), comm_class=SortComm)
    merged = np.concatenate(res.values)
    assert np.array_equal(merged, np.sort(data))


def test_sorter_with_duplicates_and_empty_blocks():
    def main(comm):
        data = (np.full(200, 42, dtype=np.int64) if comm.rank % 2 == 0
                else np.empty(0, dtype=np.int64))
        return comm.sort(data)

    res = runk(main, 4, comm_class=SortComm)
    merged = np.concatenate(res.values)
    assert np.array_equal(merged, np.full(400, 42))


def test_sorter_virtual_clock_pinned():
    """Sorting faster on the wall clock leaves the charged clocks alone."""
    def main(comm):
        rng = np.random.default_rng(comm.rank + 100)
        return comm.sort(rng.integers(0, 10**6, size=5000), charge_compute=True)

    res = runk(main, 4, comm_class=SortComm)
    assert res.times == [0.0004988967903433923, 0.00043351271916444083,
                         0.0005566253476906901, 0.0005659586026833473]


class TestKernels:
    """``sort_keys`` and ``partition`` against numpy's stable sorts, bitwise."""

    INT_DTYPES = [np.int8, np.int16, np.int32, np.int64,
                  np.uint8, np.uint16, np.uint32, np.uint64, np.bool_]

    @pytest.mark.parametrize("dtype", INT_DTYPES)
    @pytest.mark.parametrize("n", [0, 1, 3000])
    def test_sort_keys_integers(self, dtype, n):
        rng = np.random.default_rng(n)
        if dtype is np.bool_:
            a = rng.integers(0, 2, size=n).astype(bool)
        else:  # every bit pattern, and repeats at every width
            a = np.frombuffer(rng.bytes(n * np.dtype(dtype).itemsize), dtype)
            a = np.concatenate([a, a[: n // 2]])
        got, want = sort_keys(a), np.sort(a, kind="stable")
        assert got.dtype == want.dtype
        assert got.view(np.uint8).tobytes() == want.view(np.uint8).tobytes()

    def test_sort_keys_floats_keep_the_stable_order(self):
        nans = np.array([0x7FF8000000000001, 0x7FF8000000000002],
                        dtype=np.uint64).view(np.float64)
        rng = np.random.default_rng(3)
        a = rng.choice(np.concatenate([[0.0, -0.0, 1.5, -1.5], nans]), 4000)
        got = sort_keys(a).view(np.uint64)
        assert np.array_equal(got, np.sort(a, kind="stable").view(np.uint64))
        assert sort_keys(a[:0]).dtype == np.float64

    @pytest.mark.parametrize("p", [1, 2, 256, 257, 2**16, 2**16 + 1])
    @pytest.mark.parametrize("n", [0, 5000])
    def test_partition_is_the_stable_argsort(self, p, n):
        rng = np.random.default_rng(p)
        owners = rng.integers(0, p, size=n)
        if n:
            owners[-1] = p - 1
        order, counts = partition(owners, p)
        want = np.argsort(owners, kind="stable")
        assert order.dtype == want.dtype
        assert order.tobytes() == want.tobytes()
        assert np.array_equal(counts, np.bincount(owners, minlength=p))
        assert len(counts) == p

    @pytest.mark.parametrize("bad", [4, 9, -1])
    def test_partition_rejects_owners_outside_the_ranks(self, bad):
        with pytest.raises(ValueError):
            partition(np.array([0, 3, bad, 1]), 4)


@settings(max_examples=10, deadline=None)
@given(
    p=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=0, max_value=200),
)
def test_sorter_property(p, seed, n):
    rng = np.random.default_rng(seed)
    data = rng.integers(-1000, 1000, size=(p, n))

    def main(comm):
        return comm.sort(data[comm.rank])

    blocks = runk(main, p, comm_class=SortComm).values
    merged = np.concatenate(blocks) if blocks else np.empty(0)
    assert np.array_equal(merged, np.sort(data.reshape(-1)))
