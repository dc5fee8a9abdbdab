"""`Mailbox` on its own: parked probes, the inlined matcher, receive gates.

A probe that finds nothing parks an entry that only the delivery of a
matching *unexpected* envelope completes, ``deposit`` / ``post`` spell the
matching rule out inline, and a posted receive is its own gate, with a lock
only if it queued.  Both are shortcuts past something simpler — every
delivery waking every probe, ``Envelope.matches`` per candidate — so both are
checked against it here, from outside: what a parked call returns, who is
parked on the mailbox's :class:`WaitContext` and what is left in its queues.
"""

import threading
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.mpi import (
    ANY_SOURCE, ANY_TAG, RawCommRevoked, RawDeadlockError, RawProcessFailure)
from repro.mpi.costmodel import FREE, Clock
from repro.mpi.p2p import Envelope, Mailbox
from repro.mpi.requests import RecvRequest, waitany
from repro.mpi.waiting import AnyGate, Gate, WaitContext
from tests.mpi.test_waiting import _joined, record_parks


def _envelope(source=0, tag=5):
    return Envelope(source, tag, None, 0, 0.0)


def _parked(box, fn, *args):
    """Run ``fn(*args)`` in a thread; returns ``(thread, outcome)`` once it
    is parked on ``box`` (as a probe, or with a receive queued)."""
    outcome = {}

    def call():
        try:
            outcome["value"] = fn(*args)
        except Exception as exc:  # noqa: BLE001 - asserted on by the test
            outcome["error"] = exc

    before = len(box.waits.parked)
    thread = threading.Thread(target=call, daemon=True)
    thread.start()
    limit = time.perf_counter() + 5.0
    while len(box.waits.parked) == before:
        assert time.perf_counter() < limit, "never parked"
        time.sleep(0.001)
    return thread, outcome


def test_a_probe_parked_before_the_deposit_returns_its_envelope():
    box = Mailbox()
    thread, outcome = _parked(box, box.probe, 0, 5)
    other, mine = _envelope(tag=6), _envelope(tag=5)
    box.deposit(other)  # not what it waits for: it stays parked
    time.sleep(0.02)
    assert thread.is_alive() and len(box.waits.parked) == 1
    box.deposit(mine)
    _joined(thread)
    assert outcome["value"] is mine
    assert not box.waits.parked
    assert box.audit_snapshot()[1] == (other, mine)  # a probe consumes nothing


def test_a_delivery_to_a_posted_receive_notifies_nobody(monkeypatch):
    """An envelope a posted receive takes is never visible to a probe: the
    parked probe is not handed it and not even woken (every wake-up that
    does not complete a wait parks again, with one more acquire)."""
    parks = record_parks(monkeypatch)
    box = Mailbox()
    box.deposit(_envelope())  # queued, nobody probing
    assert box.probe(ANY_SOURCE, ANY_TAG).tag == 5 and parks == []
    pr = box.post(ANY_SOURCE, 7, 0.0)
    thread, outcome = _parked(box, box.probe, 0, 9)
    box.deposit(_envelope(tag=7))  # matches the posted receive
    time.sleep(0.02)
    assert pr.envelope.tag == 7 and thread.is_alive()
    box.deposit(_envelope(tag=9))
    _joined(thread)
    assert outcome["value"].tag == 9
    assert [parker for parker, _ in parks] == [thread]


@pytest.mark.parametrize("reason, error", [
    ("failure", RawProcessFailure), ("revoke", RawCommRevoked)])
def test_interrupt_wakes_a_parked_probe_and_a_parked_recv(reason, error):
    machine = SimpleNamespace(failed=frozenset(), fuzzer=None)
    box = Mailbox(WaitContext(30.0, machine, members=(0,)))
    probing, probed = _parked(box, box.probe, 0, 5)
    receiving, received = _parked(box, lambda: box.wait(box.post(0, 5, 0.0)))
    if reason == "failure":
        machine.failed = frozenset({0})
    else:
        box.waits.revoked = True
    t0 = time.perf_counter()
    box.waits.interrupt()
    _joined(probing), _joined(receiving)
    assert time.perf_counter() - t0 < 0.2
    assert isinstance(probed["error"], error)
    assert isinstance(received["error"], error)
    assert not box.waits.parked and box.audit_snapshot() == ((), ())
    box.deposit(_envelope())  # neither left an entry behind to be matched
    assert box.audit_snapshot()[1][0].tag == 5


def test_the_parked_probe_count_returns_to_zero_after_a_time_out():
    box = Mailbox(WaitContext(0.05))
    with pytest.raises(RawDeadlockError, match=r"probe\(source=-1, tag=-1\) "
                                               "exceeded the 0s deadlock"):
        box.probe(ANY_SOURCE, ANY_TAG)
    assert not box.waits.parked
    env = _envelope()
    box.deposit(env)  # no stale probe entry takes it, and the mailbox works
    assert box.probe(0, 5) is env and box.iprobe(0, 5) is env


# -- the inlined matcher against the reference predicate ------------------------

_ops = st.lists(st.one_of(
    st.tuples(st.just("deposit"), st.integers(0, 2), st.integers(0, 2)),
    st.tuples(st.just("post"), st.sampled_from([ANY_SOURCE, 0, 1, 2]),
              st.sampled_from([ANY_TAG, 0, 1, 2])),
    st.tuples(st.just("cancel"), st.integers(0, 39), st.none()),
    st.tuples(st.just("waitany"), st.none(), st.none()),
), max_size=40)


def _same(queue, model):
    return len(queue) == len(model) and all(
        a is b for a, b in zip(queue, model))


def _check_gate(pr, matched_at_post, rebound):
    """A posted receive is its own gate: open with no lock if it matched at
    post, else closed on a lock of its own until matched or cancelled (a
    waitany's ``AnyGate`` shares one lock among its receives: ``rebound``)."""
    assert isinstance(pr, Gate)
    if matched_at_post:
        assert pr.opened and pr.envelope is not None
        assert not hasattr(pr, "_lock")  # never allocated
    elif pr.envelope is None and not pr.cancelled:
        assert not pr.opened and (rebound or pr._lock.locked())
    else:
        assert pr.opened


@settings(max_examples=300, deadline=None)
@given(_ops)
def test_the_inlined_matcher_is_the_reference_predicate_oldest_first(ops):
    """Any interleaving of deposits, (wildcard) posts, cancels and waitany
    groups matches exactly what ``Envelope.matches`` over two oldest-first
    queues says — non-overtaking — and leaves every receive the gate it
    should be: lock-free when matched at post, its own gate when queued,
    opened by the match or the cancel, through an ``AnyGate``'s lock too."""
    box = Mailbox()
    posted, unexpected = [], []  # the model
    receives = []  # (pr, matched at post) of every post so far
    group = None  # the latest waitany's AnyGate and its receives
    rebound = set()  # ids of the receives some AnyGate rebound
    for kind, source, tag in ops:
        if kind == "deposit":
            env = _envelope(source, tag)
            box.deposit(env)
            i = next((i for i, pr in enumerate(posted)
                      if env.matches(pr.source, pr.tag)), None)
            if i is None:
                unexpected.append(env)
            else:
                assert posted.pop(i).envelope is env
        elif kind == "post":
            pr = box.post(source, tag, 0.0)
            i = next((i for i, env in enumerate(unexpected)
                      if env.matches(source, tag)), None)
            if i is None:
                posted.append(pr)
                assert pr.envelope is None
            else:
                assert pr.envelope is unexpected.pop(i)
            receives.append((pr, i is not None))
        elif kind == "cancel" and receives:
            pr, _ = receives[source % len(receives)]
            # MPI_Cancel cannot undo a match; an unmatched one leaves its queue
            assert box.cancel(pr) is (pr.envelope is None)
            if pr in posted:
                posted.remove(pr)
        elif kind == "waitany" and posted:
            # what waitany parks on once every test() said "not done"
            group = AnyGate(list(posted)), list(posted)
            rebound.update(map(id, posted))
        now_posted, now_unexpected = box.audit_snapshot()
        assert _same(now_posted, posted) and _same(now_unexpected, unexpected)
        for pr, matched_at_post in receives:
            _check_gate(pr, matched_at_post, id(pr) in rebound)
        if group is not None:
            any_gate, members = group
            done = any(pr.opened for pr in members)
            assert any_gate.opened is done
            assert any_gate._lock.locked() is not done


def test_an_empty_mailbox_queues_without_scanning():
    """The empty-queue fast paths: a deposit with nothing posted queues the
    envelope, a post with nothing queued queues a closed receive."""
    box = Mailbox()
    pr = box.post(0, 5, 0.0)
    assert box.audit_snapshot() == ((pr,), ()) and not pr.opened
    box.cancel(pr)
    env = _envelope()
    box.deposit(env)
    assert box.audit_snapshot() == ((), (env,))
    matched = box.post(0, 5, 0.0)
    assert matched.envelope is env and box.audit_snapshot() == ((), ())


def test_waitany_wakes_on_a_queued_receive_through_its_rebound_lock():
    """``waitany`` over queued receives parks once on an ``AnyGate``; the
    delivery that matches one of them wakes it through the rebound lock."""
    box = Mailbox()
    requests = [RecvRequest(box, box.post(0, tag, 0.0), Clock(FREE))
                for tag in (1, 2, 3)]
    thread, outcome = _parked(box, waitany, requests)
    box.deposit(_envelope(tag=2))
    _joined(thread)
    index, (payload, status) = outcome["value"]
    assert (index, status.tag) == (1, 2)
    for request in (requests[0], requests[2]):
        assert request.cancel()
    assert box.audit_snapshot() == ((), ())
