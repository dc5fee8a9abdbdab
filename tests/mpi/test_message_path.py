"""The raw per-message path, pinned without a wall clock.

Every message — a public ``send`` / ``recv``, a schedule's ``Send`` / ``Recv``
step — takes one path: ``RawComm._deposit`` / ``_recv`` over
``Mailbox.deposit`` / ``post`` / ``wait``.  Its cost is counted here as
Python ``call`` events inside ``repro/mpi/`` under ``sys.setprofile`` (the
method of ``tests/core/test_hit_path.py``), exactly, on a plain thread rank:
untraced, unsanitized, unfuzzed.  The second half switches the tracer, the
sanitizer and a fault campaign on and checks that the short path still feeds
them what the long one did.
"""

import time

import numpy as np
import pytest

from repro.mpi import (
    ANY_SOURCE, ANY_TAG, SUM, CollectiveEngine, FaultCampaign,
    ResourceLeakError, run_mpi)
from repro.mpi import context
from repro.mpi.collectives import Collective
from repro.mpi.algorithms.schedule import Recv, Run, Send, Tag
from tests.core.test_hit_path import _frames_by_layer

#: Python frames inside repro/mpi/ per call, at p = 1 (a message to self)
FRAMES = {
    "send": 6,
    "recv_message_waiting": 8,
    "sendrecv": 13,
    "isend": 7,
    "irecv_message_waiting": 8,
    "irecv_first": 9,
    "wait_message_waiting": 4,
    "wait_after_deposit": 4,
}
#: ... per step of a schedule, and for a blocking ``recv`` that has to park,
#: at p = 2
STEP_FRAMES = {"Send": 4, "Recv": 2}
PARKED_RECV = 11


def _mpi_frames(call) -> int:
    """Python ``call`` events of one ``call()`` whose file is in repro/mpi/."""
    return _frames_by_layer(call)["mpi"]


def _plain(fn, p, **kwargs):
    """``fn`` on ``p`` plain thread ranks, whatever lane (sanitizer, process
    backend, schedule fuzzer, forced algorithms) the environment selects."""
    with pytest.MonkeyPatch.context() as env:
        env.delenv("REPRO_FUZZ_SEED", raising=False)
        kwargs.setdefault("sanitize", False)
        return run_mpi(fn, p, backend="thread",
                       engine=CollectiveEngine(env={}), **kwargs)


def _count_p1(raw) -> dict:
    v = np.arange(8, dtype=np.int64)
    for _ in range(2):  # the second round is steady state
        counted = {"send": _mpi_frames(lambda: raw.send(v, 0))}
        counted["recv_message_waiting"] = _mpi_frames(lambda: raw.recv(0))
        counted["sendrecv"] = _mpi_frames(lambda: raw.sendrecv(v, 0, 0))
        counted["isend"] = _mpi_frames(lambda: raw.isend(v, 0))
        reqs = []
        counted["irecv_message_waiting"] = _mpi_frames(
            lambda: reqs.append(raw.irecv(0)))
        counted["wait_message_waiting"] = _mpi_frames(reqs[0].wait)
        counted["irecv_first"] = _mpi_frames(
            lambda: reqs.append(raw.irecv(0)))
        raw.send(v, 0)
        counted["wait_after_deposit"] = _mpi_frames(reqs[1].wait)
    return counted


@pytest.fixture(scope="module")
def frames_p1():
    return _plain(_count_p1, 1).values[0]


@pytest.mark.parametrize("name", FRAMES)
def test_a_call_at_p1_runs_exactly_its_frames(frames_p1, name):
    assert frames_p1[name] == FRAMES[name]


def _steps(kind, k):
    """A schedule of one phase and ``k`` steps to / from the other rank."""
    def schedule(rank):
        yield Tag(3)
        for i in range(k):
            if kind is Send:
                yield Send(1 - rank, i)
            else:
                assert (yield Recv(1 - rank)) == i
    return schedule


def _count_p2(raw) -> dict:
    counted = {}
    mailbox = raw.state.mailboxes[1]
    for k in (1, 2, 1, 2):  # the second pair is steady state
        # rank 0 sends while rank 1 has nothing posted; rank 1 starts once
        # every message is queued: neither side parks, so the counts are exact
        kind = Send if raw.rank == 0 else Recv
        while raw.rank == 1 and len(mailbox.audit_snapshot()[1]) < k:
            time.sleep(0.0005)
        counted[k] = _mpi_frames(Run(raw, _steps(kind, k)(raw.rank)).wait)
        raw.barrier()
    step = counted[2] - counted[1]

    # a blocking recv that parks: rank 0 sends once it sees the receive
    # queued.  A park may time out and re-check before the send lands (a
    # loaded machine), which only ever adds frames: the least of five is it
    parked = []
    for i in range(5):
        raw.barrier()
        if raw.rank == 1:
            parked.append(_mpi_frames(lambda: raw.recv(0, 9)))
        else:
            while not any(pr.tag == 9 for pr in mailbox.audit_snapshot()[0]):
                time.sleep(0.0005)
            raw.send(i, 1, 9)
    return step, min(parked, default=None)


def test_schedule_steps_and_a_parked_recv_at_p2():
    (send_step, _), (recv_step, parked) = _plain(_count_p2, 2).values
    assert send_step == STEP_FRAMES["Send"]
    assert recv_step == STEP_FRAMES["Recv"]
    assert parked == PARKED_RECV


# -- the same calls, observed --------------------------------------------------


def _every_call(raw):
    v = np.arange(8, dtype=np.int64)
    raw.send(v, 0, 3)
    raw.recv(ANY_SOURCE, ANY_TAG)
    raw.sendrecv(v, 0, 0, sendtag=4, recvtag=4)
    raw.isend(v, 0, 5).wait()
    raw.irecv(0, 5).wait()
    return raw.clock.now


def test_traced_calls_still_record_their_spans():
    res = _plain(_every_call, 1, trace=True)
    events = [(e.op, e.peers, e.tag, e.sent, e.recvd)
              for e in res.trace.events_for(0)]
    assert events == [
        ("send", (0,), 3, 64, 0),
        ("recv", (0,), 3, 0, 64),  # the wildcards resolved to the match
        ("sendrecv", (0, 0), 4, 64, 64),
        ("isend", (0,), 5, 64, 0),
        ("irecv", (0,), 5, 0, 0),
    ]
    # tracing observes the virtual clock, it never moves it
    assert res.values[0] == _plain(_every_call, 1).values[0]


def test_sanitized_messages_still_carry_their_origins():
    def main(raw):
        raw.send(np.arange(2), 0, 4)  # never received
        raw.irecv(0, 6)  # never matched, waited or cancelled

    with pytest.raises(ResourceLeakError) as exc:
        _plain(main, 1, sanitize=True)
    by_kind = exc.value.report.by_kind()
    (unexpected,), (request,) = by_kind["unexpected"], by_kind["request"]
    assert (unexpected.tag, unexpected.nbytes) == (4, 16)
    assert (request.op, request.tag) == ("irecv", 6)
    for rec in (unexpected, request):  # created in the call ``main`` made
        assert "context.py" in rec.origin[0]
        assert any(__file__ in line and "in main" in line
                   for line in rec.origin[1:4])


def test_fault_hooks_still_see_every_op_and_every_internal_message():
    seen = []

    class Spy(FaultCampaign):
        def on_op(self, comm, op):
            seen.append(op)
            super().on_op(comm, op)

        def on_internal(self, comm):
            seen.append("internal")
            super().on_internal(comm)

    def to_self():
        yield Tag(3)
        yield Send(0, 7)
        assert (yield Recv(0)) == 7

    def main(raw):
        _every_call(raw)
        Run(raw, to_self()).wait()

    _plain(main, 1, faults=Spy())
    assert seen == [
        "send", "internal", "recv", "internal",
        "sendrecv", "internal", "internal",
        "isend", "internal", "irecv",  # posting an irecv is not a round
        "internal", "internal",  # one per Send step, one per Recv step
    ]


def _every_kind_of_call(raw):
    """Each raw call that opens a span when traced, once, at p = 2."""
    r, peer = raw.rank, 1 - raw.rank
    v = np.arange(4, dtype=np.int64)
    raw.send(v, peer, 1), raw.recv(peer, 1)
    raw.isend(v, peer, 2).wait(), raw.irecv(peer, 2).wait()
    raw.sendrecv(v, peer, peer, sendtag=3, recvtag=3)
    if r == 0:
        raw.ssend(v, 1, 4)
        raw.issend(v, 1, 5).wait()
    else:
        raw.probe(0, 4), raw.iprobe(0, 4), raw.recv(0, 4), raw.recv(0, 5)
    raw.ibarrier().wait()
    raw.barrier(), raw.bcast(v, 0), raw.allreduce(v, SUM)
    raw.allgatherv(v, [4, 4]), raw.alltoall([r, r])
    raw.ibcast(v, 0).wait(), raw.iallreduce(v, SUM).wait()
    raw.iallgather(r).wait()
    dup = raw.dup()
    raw.split(r % 2)
    raw.dist_graph_create_adjacent([peer], [peer]).neighbor_alltoall([r])
    win = dup.win_create(np.zeros(2, dtype=np.int64))
    win.put(v[:1], peer), win.fence(), win.get(peer, 0, 1)
    win.accumulate(v[:1], peer), win.fetch_and_op(1, peer, 0, SUM)
    win.compare_and_swap(0, 0, peer, 1), win.fence(), win.free()
    dup.agree(True), dup.shrink(), dup.revoke()
    return True


def test_an_untraced_call_builds_no_span_arguments(monkeypatch):
    """Nothing that names, sizes or opens a span runs while untraced."""
    built = []

    def spy(owner, name):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            built.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    spy(context.RawComm, "_span")
    spy(context, "_peer")
    spy(Collective, "span_peers")
    spy(Collective, "payload")
    assert _plain(_every_kind_of_call, 2).values == [True, True]
    assert built == []
    assert _plain(_every_kind_of_call, 2, trace=True).values == [True, True]
    assert {"_span", "_peer", "span_peers", "payload"} <= set(built)
