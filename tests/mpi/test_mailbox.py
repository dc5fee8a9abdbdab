"""`Mailbox` on its own: the probe's conditional notification and the inlined
matcher.

A delivery pays for ``notify_all`` only while a probe is parked
(``Mailbox._probing``), and ``deliver`` / ``post`` spell the matching rule out
inline.  Both are shortcuts past something simpler — an unconditional notify,
``Envelope.matches`` per candidate — so both are checked against it here.
"""

import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.mpi import (
    ANY_SOURCE, ANY_TAG, RawCommRevoked, RawDeadlockError, RawProcessFailure)
from repro.mpi.p2p import Envelope, Mailbox
from tests.mpi.test_waiting import _joined


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

    before = box._probing + len(box.audit_snapshot()[0])
    thread = threading.Thread(target=call, daemon=True)
    thread.start()
    limit = time.perf_counter() + 5.0
    while box._probing + len(box.audit_snapshot()[0]) == before:
        assert time.perf_counter() < limit, "never parked"
        time.sleep(0.001)
    return thread, outcome


def test_a_probe_parked_before_the_deposit_returns_its_envelope():
    box = Mailbox()
    thread, outcome = _parked(box, box.probe, 0, 5)
    assert box._probing == 1
    other, mine = _envelope(tag=6), _envelope(tag=5)
    box.deposit(other)  # notified, looks, parks again
    box.deposit(mine)
    _joined(thread)
    assert outcome["value"] is mine
    assert box._probing == 0
    assert box.audit_snapshot()[1] == (other, mine)  # a probe consumes nothing


def test_a_delivery_to_a_posted_receive_notifies_nobody():
    """Nothing a probe could see changed, so the condition is left alone —
    and with no probe parked it is never touched at all."""
    box = Mailbox()
    notified, notify_all = [], box._cond.notify_all
    box._cond.notify_all = lambda: (notified.append(box._probing),
                                    notify_all())
    box.deposit(_envelope())  # queued, nobody probing
    pr = box.post(0, 7, 0.0)
    thread, outcome = _parked(box, box.probe, 0, 9)
    box.deposit(_envelope(tag=7))  # matches the posted receive
    assert notified == [] and pr.envelope.tag == 7
    box.deposit(_envelope(tag=9))
    _joined(thread)
    assert notified == [1] and outcome["value"].tag == 9


@pytest.mark.parametrize("reason, error", [
    ("failure", RawProcessFailure), ("revoke", RawCommRevoked)])
def test_interrupt_wakes_a_parked_probe_and_a_parked_recv(reason, error):
    box = Mailbox(deadline_seconds=30.0)
    changed = []
    box.failure_probe = lambda: frozenset(changed if reason == "failure"
                                          else ())
    box.revoke_probe = lambda: bool(changed) and reason == "revoke"
    probing, probed = _parked(box, box.probe, 0, 5)
    receiving, received = _parked(box, lambda: box.wait(box.post(0, 5, 0.0)))
    changed.append(0)
    t0 = time.perf_counter()
    box.interrupt()
    _joined(probing), _joined(receiving)
    assert time.perf_counter() - t0 < 0.2
    assert isinstance(probed["error"], error)
    assert isinstance(received["error"], error)
    assert box._probing == 0 and box.audit_snapshot() == ((), ())


def test_the_parked_probe_count_returns_to_zero_after_a_time_out():
    box = Mailbox(deadline_seconds=0.05)
    with pytest.raises(RawDeadlockError, match="probe"):
        box.probe(ANY_SOURCE, ANY_TAG)
    assert box._probing == 0
    box.deposit(_envelope())  # and the mailbox still works
    assert box.probe(0, 5).tag == 5


# -- the inlined matcher against the reference predicate ------------------------

_ops = st.lists(st.one_of(
    st.tuples(st.just("deposit"), st.integers(0, 2), st.integers(0, 2)),
    st.tuples(st.just("post"), st.sampled_from([ANY_SOURCE, 0, 1, 2]),
              st.sampled_from([ANY_TAG, 0, 1, 2])),
), max_size=40)


def _same(queue, model):
    return len(queue) == len(model) and all(
        a is b for a, b in zip(queue, model))


@settings(max_examples=200, deadline=None)
@given(_ops)
def test_the_inlined_matcher_is_the_reference_predicate_oldest_first(ops):
    """Any interleaving of deposits and (wildcard) posts matches exactly what
    ``Envelope.matches`` over two oldest-first queues says: non-overtaking."""
    box = Mailbox()
    posted, unexpected = [], []  # the model
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
        else:
            pr = box.post(source, tag, 0.0)
            i = next((i for i, env in enumerate(unexpected)
                      if env.matches(source, tag)), None)
            if i is None:
                posted.append(pr)
                assert pr.envelope is None
            else:
                assert pr.envelope is unexpected.pop(i)
        now_posted, now_unexpected = box.audit_snapshot()
        assert _same(now_posted, posted) and _same(now_unexpected, unexpected)
