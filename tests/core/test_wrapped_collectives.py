"""All other wrapped collectives: bcast, gather(v), scatter(v), alltoall(v),
reductions, scans, and the simplified in-place variants."""

import operator
import time

import numpy as np
import pytest

from repro.core import (
    move,
    op,
    recv_buf,
    recv_counts,
    recv_counts_out,
    root,
    send_buf,
    send_counts,
    send_recv_buf,
    values_on_rank_0,
)
from repro.mpi import MAX, MIN, SUM, expect_calls, user_op
from tests.conftest import SMALL_P, runk


@pytest.mark.parametrize("p", SMALL_P)
def test_bcast_value(p):
    def main(comm):
        rt = p // 2
        value = "payload" if comm.rank == rt else None
        return comm.bcast(send_recv_buf(value), root(rt))

    assert all(v == "payload" for v in runk(main, p).values)


def test_bcast_into_referencing_array():
    def main(comm):
        data = np.arange(4.0) if comm.rank == 0 else np.zeros(4)
        ret = comm.bcast(send_recv_buf(data))
        return ret, data.tolist()

    for ret, data in runk(main, 3).values:
        assert ret is None and data == [0.0, 1.0, 2.0, 3.0]


@pytest.mark.parametrize("p, algorithm", [
    pytest.param(1, None, id="1"), pytest.param(3, None, id="3"),
    pytest.param(3, "scatter_allgather", id="3-scatter_allgather"),
])
def test_bcast_root_buffer_is_not_copied_onto_itself(p, algorithm):
    """The root's container already holds the value: it is left alone (a
    read-only array can be the source), non-roots still receive into theirs.
    Every bcast algorithm hands the root its own object back."""
    def main(comm):
        if comm.rank == 0:
            data = np.arange(4.0)
            data.flags.writeable = False
        else:
            data = np.zeros(6)
        with comm.use_algorithms(**({"bcast": algorithm} if algorithm else {})):
            ret = comm.bcast(send_recv_buf(data))
        return ret, data.tolist()

    values = runk(main, p).values
    assert values[0] == (None, [0.0, 1.0, 2.0, 3.0])
    for ret, data in values[1:]:
        assert ret is None and data == [0.0, 1.0, 2.0, 3.0, 0.0, 0.0]


@pytest.mark.parametrize("p", SMALL_P)
def test_gather_concatenates_blocks(p):
    def main(comm):
        block = np.full(2, comm.rank, dtype=np.int64)
        out = comm.gather(send_buf(block), root(p - 1))
        return out.tolist() if out is not None else None

    res = runk(main, p)
    assert res.values[p - 1] == [r for r in range(p) for _ in range(2)]
    if p > 1:
        assert res.values[0] is None


def test_gatherv_inference_issues_gather_of_counts():
    def main(comm):
        v = np.arange(comm.rank + 1, dtype=np.int64)
        with expect_calls(comm.raw, gather=1, gatherv=1):
            out = comm.gatherv(send_buf(v))
        return out.tolist() if out is not None else None

    res = runk(main, 4)
    assert res.values[0] == [x for i in range(4) for x in range(i + 1)]


def test_gatherv_with_counts_single_call():
    def main(comm):
        v = np.arange(comm.rank + 1, dtype=np.int64)
        counts = [i + 1 for i in range(comm.size)]
        with expect_calls(comm.raw, gatherv=1):
            out = comm.gatherv(send_buf(v), recv_counts(counts))
        return out is not None

    res = runk(main, 3)
    assert res.values == [True, False, False]


@pytest.mark.parametrize("p", SMALL_P)
def test_scatter_equal_blocks(p):
    def main(comm):
        data = np.arange(3 * p) if comm.rank == 0 else None
        params = [root(0)]
        if data is not None:
            params.insert(0, send_buf(data))
        return comm.scatter(*params).tolist()

    res = runk(main, p)
    for r in range(p):
        assert res.values[r] == [3 * r, 3 * r + 1, 3 * r + 2]


def test_scatter_indivisible_raises():
    """Root raises before scattering; its abort fails the parked peer at once
    and the root cause is what is reported."""
    def main(comm):
        comm.scatter(send_buf(np.arange(5)) if comm.rank == 0 else root(0),
                     *([root(0)] if comm.rank == 0 else []))

    t0 = time.monotonic()
    with pytest.raises(RuntimeError, match="divisible"):
        runk(main, 2, deadline=2.0)
    assert time.monotonic() - t0 < 0.5


@pytest.mark.parametrize("p", SMALL_P)
def test_scatterv_variable_blocks(p):
    def main(comm):
        counts = [i + 1 for i in range(comm.size)]
        data = np.arange(sum(counts)) if comm.rank == 0 else None
        if comm.rank == 0:
            out = comm.scatterv(send_buf(data), send_counts(counts))
        else:
            out = comm.scatterv()
        return out.tolist()

    res = runk(main, p)
    offset = 0
    for r in range(p):
        assert res.values[r] == list(range(offset, offset + r + 1))
        offset += r + 1


@pytest.mark.parametrize("p", SMALL_P)
def test_alltoall_blocks(p):
    def main(comm):
        data = np.array([comm.rank * 100 + d for d in range(comm.size)])
        return comm.alltoall(send_buf(data)).tolist()

    res = runk(main, p)
    for r in range(p):
        assert res.values[r] == [s * 100 + r for s in range(p)]


def test_alltoallv_inference_and_outputs():
    def main(comm):
        p = comm.size
        counts = [d % 2 + 1 for d in range(p)]
        data = np.concatenate(
            [np.full(counts[d], comm.rank * 10 + d, dtype=np.int64)
             for d in range(p)]
        )
        with expect_calls(comm.raw, alltoall=1, alltoallv=1):
            result = comm.alltoallv(send_buf(data), send_counts(counts),
                                    recv_counts_out())
        buf, rcounts = result
        return buf.tolist(), rcounts

    res = runk(main, 4)
    buf, rcounts = res.values[1]
    assert rcounts == [2, 2, 2, 2]
    assert buf == [1, 1, 11, 11, 21, 21, 31, 31]


@pytest.mark.parametrize("p", SMALL_P)
def test_reduce_with_functor_mapping(p):
    """operator.add maps to the built-in SUM (std::plus analog)."""
    def main(comm):
        out = comm.reduce(send_buf(np.array([comm.rank, 1.0])),
                          op(operator.add))
        return None if out is None else out.tolist()

    res = runk(main, p)
    assert res.values[0] == [p * (p - 1) / 2, float(p)]


@pytest.mark.parametrize("p", SMALL_P)
def test_allreduce_with_lambda(p):
    def main(comm):
        return comm.allreduce_single(
            send_buf(comm.rank + 1), op(lambda a, b: a + b)
        )

    assert all(v == p * (p + 1) // 2 for v in runk(main, p).values)


def test_allreduce_inplace_array():
    def main(comm):
        data = np.array([comm.rank + 1.0, 1.0])
        ret = comm.allreduce(send_recv_buf(data), op(SUM))
        return ret, data.tolist()

    res = runk(main, 4)
    for ret, data in res.values:
        assert ret is None and data == [10.0, 4.0]


def test_allreduce_max_min():
    def main(comm):
        mx = comm.allreduce_single(send_buf(comm.rank), op(MAX))
        mn = comm.allreduce_single(send_buf(comm.rank), op(MIN))
        return mx, mn

    assert all(v == (3, 0) for v in runk(main, 4).values)


@pytest.mark.parametrize("p", SMALL_P)
def test_scan_and_exscan(p):
    def main(comm):
        inc = comm.scan_single(send_buf(comm.rank + 1), op(SUM))
        exc = comm.exscan_single(send_buf(comm.rank + 1), op(SUM))
        return inc, exc

    res = runk(main, p)
    for r in range(p):
        assert res.values[r] == ((r + 1) * (r + 2) // 2, r * (r + 1) // 2)


def test_exscan_values_on_rank_0():
    """MPI leaves rank 0 undefined; KaMPIng lets the caller choose."""
    def main(comm):
        return comm.exscan_single(send_buf(comm.rank + 1.0), op(MIN),
                                  values_on_rank_0(123.0))

    res = runk(main, 3)
    assert res.values[0] == 123.0
    assert res.values[1] == 1.0


def test_exscan_no_identity_no_default_raises():
    def main(comm):
        return comm.exscan_single(send_buf(comm.rank + 1.0), op(MIN))

    with pytest.raises(RuntimeError, match="values_on_rank_0"):
        runk(main, 2)


def test_inplace_allgather_matches_fig3():
    def main(comm):
        rc = np.zeros(comm.size, dtype=np.int64)
        rc[comm.rank] = comm.rank + 1
        comm.allgather(send_recv_buf(rc))
        moved = np.zeros(comm.size, dtype=np.int64)
        moved[comm.rank] = comm.rank * 2
        moved = comm.allgather(send_recv_buf(move(moved)))
        return rc.tolist(), moved.tolist()

    res = runk(main, 4)
    for rc, moved in res.values:
        assert rc == [1, 2, 3, 4]
        assert moved == [0, 2, 4, 6]


def test_non_commutative_wrapped_reduce():
    concat = user_op(lambda a, b: f"{a}|{b}", commutative=False)

    def main(comm):
        return comm.allreduce_single(send_buf(str(comm.rank)), op(concat))

    assert all(v == "0|1|2" for v in runk(main, 3).values)
