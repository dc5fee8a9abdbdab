"""Specialised ≡ general: the straight-line closures against the general ones.

Six builders return a straight-line closure when the compiled plan says an
ndarray goes out as it is and the result comes back bare (or fills a
referenced ndarray).  Each is run here beside the same call through the
general closure — forced by a list payload, a ``send_count`` spanning the
whole buffer, a caller's ``recv_buf`` or a status request — and must produce
equal values, equal per-rank PMPI counts and equal virtual clocks; every
check the general closure makes must fail the same way on both.
"""

import numpy as np
import pytest

from repro.core import (
    SerializationRequiredError, TruncationError, UsageError, destination, op,
    recv_buf, recv_count, recv_counts, resize_to_fit, root, send_buf,
    send_count, send_counts, send_recv_buf, send_recv_count, source,
    status_out)
from repro.mpi import SUM
from tests.conftest import runk


def _data(comm, n=4):
    return np.arange(n, dtype=np.int64) + 10 * comm.rank


def _ring(comm):
    return (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size


# call(comm, general): the ndarray signature, or — ``general`` says how — the
# same call through the general closure

def _allgatherv(comm, general):
    v, counts = _data(comm), [4] * comm.size
    if general == "send_count":
        return comm.allgatherv(send_buf(v), send_count(4), recv_counts(counts))
    if general == "list":
        return comm.allgatherv(send_buf(v.tolist()), recv_counts(counts))
    if general == "recv_buf":
        out = []
        comm.allgatherv(send_buf(v), recv_counts(counts),
                        recv_buf(out, resize_to_fit))
        return out
    return comm.allgatherv(send_buf(v), recv_counts(counts))


def _allgatherv_inferred(comm, general):
    v = _data(comm, comm.rank + 1)
    if general == "send_count":
        return comm.allgatherv(send_buf(v), send_count(len(v)))
    if general == "list":
        return comm.allgatherv(send_buf(v.tolist()))
    if general == "recv_buf":
        out = []
        comm.allgatherv(send_buf(v), recv_buf(out, resize_to_fit))
        return out
    return comm.allgatherv(send_buf(v))


def _allreduce(comm, general):
    v = _data(comm)
    if general == "list":
        return comm.allreduce(send_buf(v.tolist()), op(SUM))
    if general == "recv_buf":
        out = np.empty(4, dtype=np.int64)
        comm.allreduce(send_buf(v), op(SUM), recv_buf(out))
        return out
    return comm.allreduce(send_buf(v), op(SUM))


def _bcast(comm, general):
    b = _data(comm)
    if general == "send_count":
        comm.bcast(send_recv_buf(b), send_recv_count(4), root(0))
    elif general == "list":
        b = b.tolist()
        comm.bcast(send_recv_buf(b), root(0))
    else:
        assert comm.bcast(send_recv_buf(b)) is None
    return b


def _bcast_rooted(comm, general):
    b, last = _data(comm), comm.size - 1
    if general == "send_count":
        comm.bcast(send_recv_buf(b), send_recv_count(4), root(last))
    else:
        comm.bcast(send_recv_buf(b), root(last))
    return b


def _alltoallv(comm, general):
    p = comm.size
    v, counts = _data(comm, 2 * p), [2] * p
    if general == "list":
        return comm.alltoallv(send_buf(v.tolist()), send_counts(counts))
    if general == "recv_buf":
        out = []
        comm.alltoallv(send_buf(v), send_counts(counts),
                       recv_buf(out, resize_to_fit))
        return out
    if general == "counts given":  # no general closure: the other inference
        return comm.alltoallv(send_buf(v), send_counts(counts),
                              recv_counts(np.asarray(counts)))
    return comm.alltoallv(send_buf(v), send_counts(counts))


def _send_recv(comm, general):
    v, (right, left) = _data(comm), _ring(comm)
    if general == "send_count":
        comm.send(send_buf(v), destination(right), send_count(4))
        return comm.recv(source(left), recv_count(4))
    if general == "list":
        comm.send(send_buf(v.tolist()), destination(right))
    else:
        comm.send(send_buf(v), destination(right))
    if general == "recv_buf":
        out = []
        comm.recv(source(left), recv_buf(out, resize_to_fit))
        return out
    if general == "status":
        value, status = comm.recv(source(left), status_out())
        assert status.source == left
        return value
    return comm.recv(source(left))


CASES = [
    (_allgatherv, "send_count"), (_allgatherv, "list"),
    (_allgatherv, "recv_buf"), (_allgatherv_inferred, "send_count"),
    (_allgatherv_inferred, "list"), (_allgatherv_inferred, "recv_buf"),
    (_allreduce, "list"), (_allreduce, "recv_buf"),
    (_bcast, "send_count"), (_bcast, "list"), (_bcast_rooted, "send_count"),
    (_alltoallv, "list"), (_alltoallv, "recv_buf"),
    (_send_recv, "send_count"), (_send_recv, "list"),
    (_send_recv, "recv_buf"), (_send_recv, "status"),
]


@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize(
    "call,general", CASES, ids=[f"{c.__name__[1:]}-{g}" for c, g in CASES])
def test_straight_line_closure_equals_the_general_one(call, general, p):
    straight = runk(call, p, args=(None,))
    through_general = runk(call, p, args=(general,))
    for got, want in zip(straight.values, through_general.values):
        assert isinstance(got, np.ndarray)  # the ndarray signature ran
        np.testing.assert_array_equal(got, np.asarray(want))
    assert straight.counts == through_general.counts
    assert straight.times == through_general.times


@pytest.mark.parametrize("p", [1, 3])
def test_alltoallv_infers_the_counts_it_would_be_given(p):
    inferred = runk(_alltoallv, p, args=(None,))
    given = runk(_alltoallv, p, args=("counts given",))
    for got, want in zip(inferred.values, given.values):
        np.testing.assert_array_equal(got, want)
    assert [c["alltoall"] for c in inferred.counts] == [1] * p
    assert [c["alltoall"] for c in given.counts] == [0] * p


# -- every check of the general closure, on both -----------------------------

def _raises(comm, error, match, call):
    with pytest.raises(error, match=match) as caught:
        call()
    return str(caught.value)


@pytest.mark.parametrize("p", [1, 3])
def test_object_dtype_is_refused_on_both_closures(p):
    def main(comm):
        objs = np.array([{"rank": comm.rank}] * 2, dtype=object)
        ones = [2] * comm.size
        calls = [
            lambda: comm.allgatherv(send_buf(objs)),
            lambda: comm.allgatherv(send_buf(objs), send_count(2)),
            lambda: comm.allgatherv(send_buf(objs), recv_counts(ones)),
            lambda: comm.allreduce(send_buf(objs), op(SUM)),
            lambda: comm.allreduce(send_buf(objs), op(SUM), recv_buf([])),
            lambda: comm.allreduce(send_recv_buf(objs), op(SUM)),
            lambda: comm.alltoallv(send_buf(objs), send_counts(ones)),
            lambda: comm.alltoallv(send_buf(objs), send_counts(ones),
                                   recv_buf([], resize_to_fit)),
            lambda: comm.send(send_buf(objs), destination(0)),
            lambda: comm.send(send_buf(objs), destination(0), send_count(2)),
        ]
        if comm.rank == 0:  # the root encodes
            calls += [
                lambda: comm.bcast(send_recv_buf(objs)),
                lambda: comm.bcast(send_recv_buf(objs), send_recv_count(2)),
            ]
        return {_raises(comm, SerializationRequiredError, "object-dtype", c)
                for c in calls}

    for texts in runk(main, p).values:
        assert len(texts) == 1  # one refusal, worded once (encode_send)


@pytest.mark.parametrize("p", [1, 3])
def test_wrong_length_send_counts_is_the_same_usage_error_on_both(p):
    def main(comm):
        v, short = _data(comm), [1] * (comm.size + 1)
        return (
            _raises(comm, UsageError, "send_counts has",
                    lambda: comm.alltoallv(send_buf(v), send_counts(short))),
            _raises(comm, UsageError, "send_counts has",
                    lambda: comm.alltoallv(send_buf(v.tolist()),
                                           send_counts(short))),
        )

    for straight, general in runk(main, p).values:
        assert straight == general == (
            f"send_counts has {p + 1} entries, expected {p}")


@pytest.mark.parametrize("p", [1, 3])
def test_a_truncating_receive_raises_on_both_closures(p):
    def main(comm):
        v, small = _data(comm), [3] * comm.size
        return (
            _raises(comm, TruncationError, "allgatherv",
                    lambda: comm.allgatherv(send_buf(v), recv_counts(small))),
            _raises(comm, TruncationError, "allgatherv",
                    lambda: comm.allgatherv(send_buf(v), send_count(4),
                                            recv_counts(small))),
        )

    for straight, general in runk(main, p).values:
        assert straight == general


def test_recv_count_still_truncates_beside_the_straight_line_recv():
    def main(comm):
        comm.send(send_buf(_data(comm)), destination(0))
        with pytest.raises(TruncationError, match=r"exceeds recv_count\(3\)"):
            comm.recv(source(0), recv_count(3))
        comm.send(send_buf(_data(comm)), destination(0))
        return comm.recv(source(0))

    np.testing.assert_array_equal(runk(main, 1).values[0], np.arange(4))
