"""Point-to-point matching conformance: tags, wildcards, ssend, probe.

Every program here runs on the lane's backend and on the thread reference;
payloads, statuses (source/tag/nbytes), and — for wildcard-free programs —
virtual clocks and PMPI counters must be bit-identical (see ``conftest``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.mpi import ANY_SOURCE, ANY_TAG
from tests.backends.conftest import ps_for


def _status_tuple(st):
    return (st.source, st.tag, st.nbytes)


def _ring_with_tags(comm):
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    comm.send((comm.rank, "first"), right, tag=5)
    comm.send(np.arange(3, dtype=np.int32) + comm.rank, right, tag=6)
    pb, sb = comm.recv(left, 6)  # matched out of send order by tag
    pa, sa = comm.recv(left, 5)
    return pa, pb, _status_tuple(sa), _status_tuple(sb)


def test_tag_matching_ring(differential, backend):
    for p in ps_for(backend):
        differential(_ring_with_tags, p)


def _non_overtaking(comm):
    if comm.rank == 0:
        for i in range(4):
            comm.send(("msg", i), 1 % comm.size, tag=2)
        return None
    if comm.rank == 1:
        got = [comm.recv(0, 2)[0] for _ in range(4)]
        assert got == [("msg", i) for i in range(4)]
        return got
    return None


def test_non_overtaking_same_tag(differential, backend):
    for p in ps_for(backend, minimum=2):
        differential(_non_overtaking, p)


def _wildcard_fan_in(comm):
    if comm.rank == 0:
        msgs = [comm.recv(ANY_SOURCE, ANY_TAG) for _ in range(comm.size - 1)]
        # arrival order is timing-dependent on every backend: compare as a
        # sorted multiset
        return sorted((st.source, st.tag, st.nbytes, pl) for pl, st in msgs)
    comm.send(comm.rank * 11, 0, tag=comm.rank)
    return None


def test_wildcard_fan_in_multiset(differential, backend):
    for p in ps_for(backend, minimum=2):
        differential(_wildcard_fan_in, p, compare=("values", "counts"))


def _ssend_ring(comm):
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    req = comm.issend(np.full(8, comm.rank, dtype=np.int64), right, tag=3)
    payload, st = comm.recv(left, 3)
    req.wait()
    # post the receive first: a symmetric blocking-ssend ring would deadlock
    # (correctly!) on every backend
    r2 = comm.irecv(left, 4)
    comm.ssend(("sync", comm.rank), right, tag=4)
    p2, s2 = r2.wait()
    return payload, _status_tuple(st), p2, _status_tuple(s2)


def test_synchronous_sends(differential, backend):
    for p in ps_for(backend, minimum=2):
        differential(_ssend_ring, p)


def _probe_then_recv(comm):
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    comm.send(bytes([comm.rank]) * 5, right, tag=9)
    st = comm.probe(left, 9)
    payload, _ = comm.recv(st.source, st.tag)
    ok, nothing = comm.iprobe(left, 42)  # nothing outstanding with tag 42
    return _status_tuple(st), payload, ok, nothing


def test_probe_and_iprobe(differential, backend):
    for p in ps_for(backend, minimum=2):
        differential(_probe_then_recv, p)


def _self_send(comm):
    comm.send({"self": comm.rank}, comm.rank, tag=1)
    payload, st = comm.recv(comm.rank, 1)
    return payload, _status_tuple(st)


def test_self_send_stays_local(differential, backend):
    for p in ps_for(backend):
        differential(_self_send, p)


def _irecv_isend_exchange(comm):
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    req = comm.irecv(left, 7)
    comm.isend(np.arange(4) * (comm.rank + 1), right, tag=7).wait()
    payload, st = req.wait()
    return payload, _status_tuple(st)


def test_nonblocking_exchange(differential, backend):
    for p in ps_for(backend, minimum=2):
        differential(_irecv_isend_exchange, p)


def _large_payload_ring(comm):
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    blob = np.arange(64 * 1024, dtype=np.float64) + comm.rank
    comm.send(blob, right, tag=1)
    payload, st = comm.recv(left, 1)
    return float(payload.sum()), _status_tuple(st)


def test_large_payloads(differential, backend):
    # 512 KiB per message: larger than a pipe buffer, so the process
    # backend's pump must drain concurrently with the sender
    for p in ps_for(backend, minimum=2)[-1:]:
        differential(_large_payload_ring, p)


@pytest.mark.slow
def test_p2p_statuses_traced(differential, backend):
    # the trace comparison pins peers/tags/bytes of every p2p event
    for p in ps_for(backend, minimum=2)[:1]:
        differential(_ssend_ring, p, trace=True,
                     compare=("values", "times", "counts", "trace"))


def _wildcard_beside_an_ibcast(comm, kind):
    """Rank 1 starts an ``ibcast`` rooted at itself, whose message to rank 0
    is queued there first, then sends a user message: rank 0's wildcard
    call must see only the user message (collective traffic is never
    matched by ``ANY_TAG``), and the ``ibcast`` still completes."""
    if comm.rank == 1:
        comm.recv(0, 1)  # rank 0 is ready
        req = comm.ibcast(np.array([5]), 1)
        comm.send("user", 0, tag=7)
        req.wait()
        return None
    if kind == "irecv_posted":  # posted before either message is sent
        posted = comm.irecv(ANY_SOURCE, ANY_TAG)
        comm.send(None, 1, tag=1)
        payload, st = posted.wait()
    else:
        comm.send(None, 1, tag=1)
        comm.probe(1, 7)  # both messages are queued now, the ibcast's first
        if kind == "recv":
            payload, st = comm.recv(ANY_SOURCE, ANY_TAG)
        elif kind == "irecv":
            payload, st = comm.irecv(ANY_SOURCE, ANY_TAG).wait()
        else:
            st = (comm.probe(ANY_SOURCE, ANY_TAG) if kind == "probe"
                  else comm.iprobe(ANY_SOURCE, ANY_TAG)[1])
            payload = comm.recv(st.source, st.tag)[0]
    return payload, st.source, st.tag, comm.ibcast(None, 1).wait().tolist()


@pytest.mark.parametrize(
    "kind", ["recv", "irecv", "probe", "iprobe", "irecv_posted"])
def test_wildcards_never_match_collective_traffic(differential, kind):
    res = differential(_wildcard_beside_an_ibcast, 2, args=(kind,),
                       compare=("values",))
    assert res.values[0] == ("user", 1, 7, [5])
