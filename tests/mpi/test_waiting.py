"""The wait discipline: `Backoff` deadline accounting, `Gate` and `AnyGate`
hand-offs, and the two guards that keep short timers and `threading.Event`
off the wait path.
"""

import ast
import contextlib
import os
import pathlib
import sys
import threading
import time
from _thread import allocate_lock

import numpy as np
import pytest

import repro
import repro.mpi.waiting as waiting
from repro.mpi import SUM, run_mpi
from repro.mpi.p2p import Envelope, Mailbox
from repro.mpi.sanitizer import ScheduleFuzzer
from repro.mpi.waiting import MAX_STEP, MIN_STEP, AnyGate, Backoff, Gate


class _FakeTime:
    """Deterministic monotonic clock for exact-deadline scenarios."""

    def __init__(self):
        self.now = 1000.0

    def monotonic(self):
        return self.now


@pytest.fixture
def clock(monkeypatch):
    fake = _FakeTime()
    monkeypatch.setattr(waiting, "time", fake)
    return fake


class TestZeroDeadline:
    def test_expired_immediately(self, clock):
        b = Backoff(0.0)
        assert b.expired

    def test_timeout_still_positive(self, clock):
        """Wait loops pass next_timeout() to a lock or Condition wait — it
        must never be zero or negative even when the budget is already gone,
        or the wait degenerates into a hot spin."""
        b = Backoff(0.0)
        assert b.next_timeout() == MIN_STEP
        clock.now += 5.0
        assert b.next_timeout() == MIN_STEP

    def test_negative_deadline_behaves_like_zero(self, clock):
        b = Backoff(-1.0)
        assert b.expired
        assert b.next_timeout() == MIN_STEP


class TestDeadlineShorterThanFirstSleep:
    def test_first_timeout_clamped_to_remaining(self, clock):
        """A 15 ms budget must not hand out the 50 ms step — the waiter
        would oversleep the deadline more than threefold."""
        deadline = MAX_STEP * 0.3
        b = Backoff(deadline)
        assert b.next_timeout() == pytest.approx(deadline)

    def test_clamped_but_never_below_min_step(self, clock):
        b = Backoff(MIN_STEP / 10)
        assert b.next_timeout() == MIN_STEP

    def test_expires_after_budget_despite_short_sleeps(self, clock):
        deadline = 2.0 ** -11  # binary-exact, ~0.49 ms < MAX_STEP
        b = Backoff(deadline)
        assert not b.expired
        clock.now += deadline
        assert b.expired


class TestDeadlineHitExactlyAtWakeup:
    def test_exact_boundary_is_expired(self, clock):
        """``elapsed == deadline`` counts as expired (>=, not >): a waiter
        that slept precisely its remaining budget must see expiry on the
        wakeup it just paid for, not after one more sleep."""
        clock.now = 0.0  # so that elapsed is the plain sum of the timeouts
        b = Backoff(1.0)
        parks = 0
        while not b.expired:
            clock.now += b.next_timeout()
            parks += 1
        assert clock.now == 1.0  # the last timeout was the exact remainder
        assert parks == 20

    def test_one_nanosecond_short_is_not_expired(self, clock):
        b = Backoff(1.0)
        clock.now += 1.0 - 1e-9
        assert not b.expired
        clock.now += 1e-9
        assert b.expired


class _HalvingFuzz:
    def __init__(self):
        self.seen = []

    def jitter(self, timeout):
        self.seen.append(timeout)
        return timeout / 2


class TestPacing:
    def test_one_long_step_never_a_short_timer(self, clock):
        """Every park is MAX_STEP until the deadline is nearer than that:
        no initial short step, no growth."""
        b = Backoff(1.0)
        assert [b.next_timeout() for _ in range(12)] == [MAX_STEP] * 12
        clock.now += 1.0 - MAX_STEP / 2
        assert b.next_timeout() == pytest.approx(MAX_STEP / 2)

    def test_elapsed_counts_real_time_not_steps(self, clock):
        """Early wakeups (an interrupt, a notify for someone else's message)
        must not stall the deadline: elapsed tracks the clock, not the sum
        of timeouts."""
        b = Backoff(10.0)
        for _ in range(100):
            b.next_timeout()  # "slept" 0 real seconds each time
        assert not b.expired
        clock.now += 10.0
        assert b.expired

    def test_fuzz_jitters_the_step_within_the_deadline(self, clock):
        fuzz = _HalvingFuzz()
        b = Backoff(1.0, fuzz=fuzz)
        assert b.next_timeout() == MAX_STEP / 2
        assert fuzz.seen == [MAX_STEP]
        clock.now += 1.0 - MAX_STEP / 4  # the deadline still clamps
        assert b.next_timeout() == pytest.approx(MAX_STEP / 4)
        clock.now += 1.0  # and the floor still holds
        assert b.next_timeout() == MIN_STEP


# ---------------------------------------------------------------------------
# Gate
# ---------------------------------------------------------------------------


def _parker(gate, timeout, out):
    """Park once in a thread; ``out`` gets ``(opened, seconds parked)``."""
    def run():
        t0 = time.monotonic()
        out.append((gate.park(timeout), time.monotonic() - t0))

    t = threading.Thread(target=run, daemon=True)
    t.start()
    return t


def _joined(thread):
    thread.join(10.0)
    assert not thread.is_alive()


class TestGate:
    def test_closed_park_times_out(self):
        g = Gate()
        t0 = time.monotonic()
        assert g.park(0.02) is False
        assert time.monotonic() - t0 >= 0.015
        assert not g.opened

    def test_open_before_park_returns_at_once(self):
        g = Gate()
        g.open()
        t0 = time.monotonic()
        assert g.park(10.0) is True
        assert g.park(10.0) is True  # and stays open
        assert time.monotonic() - t0 < 1.0

    def test_open_while_parked_wakes_the_waiter(self):
        g, out = Gate(), []
        t = _parker(g, 10.0, out)
        time.sleep(0.05)
        g.open()
        _joined(t)
        (opened, parked), = out
        assert opened and 0.03 < parked < 5.0

    def test_double_open_is_idempotent(self):
        g = Gate()
        g.open()
        g.open()  # no "release unlocked lock"
        assert g.park(10.0) is True
        g.open()
        g.interrupt()
        assert g.opened

    def test_interrupt_without_completion_reparks(self):
        g, out = Gate(), []
        t = _parker(g, 10.0, out)
        time.sleep(0.05)
        g.interrupt()
        _joined(t)
        (opened, parked), = out
        assert not opened and parked < 5.0  # woken, nothing completed
        # the wake-up re-closed the gate: the next park blocks again
        t0 = time.monotonic()
        assert g.park(0.02) is False
        assert time.monotonic() - t0 >= 0.015
        g.open()
        assert g.park(10.0) is True

    def test_interrupt_before_park_is_not_lost(self):
        g = Gate()
        g.interrupt()
        g.interrupt()  # coalesces: one pending wake-up
        t0 = time.monotonic()
        assert g.park(10.0) is False
        assert time.monotonic() - t0 < 1.0
        assert g.park(0.02) is False  # consumed


    def test_a_waker_that_loses_the_race_to_release_is_not_an_error(self):
        """Wakers share no lock, so two can both see the gate ``locked()``;
        the second ``release()`` then finds it unlocked.  Too rare to wait
        for (the interpreter seldom switches threads between the two calls),
        so the loser's view is staged."""
        class LostRace:
            def locked(self):
                return True

            def release(self):
                raise RuntimeError("release unlocked lock")

        g = Gate()
        g._lock = LostRace()
        g.interrupt()
        g.open()
        assert g.opened

    def test_any_gate_wakes_on_whichever_gate_opens(self):
        gates, out = [Gate(), Gate(), Gate()], []
        t = _parker(AnyGate(gates), 10.0, out)
        time.sleep(0.05)
        gates[1].open()
        _joined(t)
        (opened, parked), = out
        assert opened and 0.03 < parked < 5.0

    def test_any_gate_sees_a_gate_opened_before_it_was_built(self):
        opened = Gate()
        opened.open()
        t0 = time.monotonic()
        assert AnyGate([Gate(), opened]).park(10.0) is True
        assert time.monotonic() - t0 < 1.0

    def test_any_gate_is_interrupted_through_any_of_its_gates(self):
        gates, out = [Gate(), Gate()], []
        t = _parker(AnyGate(gates), 10.0, out)
        time.sleep(0.05)
        gates[0].interrupt()
        _joined(t)
        (opened, parked), = out
        assert not opened and parked < 5.0


#: the fuzz lane pins one seed per matrix cell; tier 1 runs the issue's three
_RACE_SEEDS = ([int(os.environ["REPRO_FUZZ_SEED"])]
               if os.environ.get("REPRO_FUZZ_SEED", "").strip()
               else [0, 7, 1234])
_HANDOFFS = 10_000


@pytest.mark.fuzz
@pytest.mark.parametrize("seed", _RACE_SEEDS)
def test_complete_vs_interrupt_race(seed):
    """10 000 ping-pong hand-offs over gates, opened under one owner lock (a
    mailbox's role), while a third thread interrupts whichever gates are live
    under that lock and a fourth without it (a ``WaitContext``'s role: it
    holds no lock of the gate's owner): no wake-up is lost — a park only ever
    returns by being woken — and no waker's race past another's ``release``
    surfaces as an error."""
    fuzz = ScheduleFuzzer(seed, max_delay=2e-5)
    owner = allocate_lock()
    ping = [Gate() for _ in range(_HANDOFFS)]
    pong = [Gate() for _ in range(_HANDOFFS)]
    errors, slow_parks, interrupts = [], [], [0]
    live = [0]
    done = threading.Event()
    limit = 5.0  # a lost wake-up shows as a park that rode its timeout

    def park(gate):
        while True:
            t0 = time.monotonic()
            if gate.park(limit):
                return
            if time.monotonic() - t0 >= limit:
                slow_parks.append(gate)
                return

    def guarded(body):
        def run():
            try:
                body()
            except BaseException as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)
                done.set()
        return threading.Thread(target=run, daemon=True)

    def pinger():
        for i in range(_HANDOFFS):
            live[0] = i
            if i % 64 == 0:
                fuzz.pause()
            with owner:
                ping[i].open()
            park(pong[i])
        done.set()

    def ponger():
        for i in range(_HANDOFFS):
            park(ping[i])
            with owner:
                pong[i].open()

    def interrupter(lock):
        def run():
            while not done.is_set():
                i = live[0]
                with lock:
                    ping[i].interrupt()
                    pong[i].interrupt()
                interrupts[0] += 1
                fuzz.pause()
        return run

    threads = [guarded(pinger), guarded(ponger), guarded(interrupter(owner)),
               guarded(interrupter(contextlib.nullcontext()))]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert slow_parks == []
    assert all(g.opened for g in ping) and all(g.opened for g in pong)
    assert interrupts[0] > 0


# ---------------------------------------------------------------------------
# guards: what must stay off the wait path
# ---------------------------------------------------------------------------


@pytest.mark.skipif(bool(os.environ.get("REPRO_FUZZ_SEED", "").strip()),
                    reason="the ambient fuzzer jitters every park's timeout")
def test_no_park_is_handed_a_short_timer(monkeypatch):
    """Nothing is discovered by polling any more, so no blocking wait of a
    collective mix may arm a timer shorter than MAX_STEP (its deadline is
    30 s away): a short timer is the earliest on its CPU, and arming and
    cancelling it was most of what a wake-up cost."""
    handed = []
    real = Backoff.next_timeout

    def spy(self):
        timeout = real(self)
        handed.append(timeout)
        return timeout

    monkeypatch.setattr(Backoff, "next_timeout", spy)

    def main(comm):
        data = np.arange(16, dtype=np.int64) + comm.rank
        for _ in range(20):
            comm.allreduce(data, SUM)
            comm.bcast(data if comm.rank == 0 else None, 0)
            comm.allgather(comm.rank)
            comm.alltoall([comm.rank] * comm.size)
            comm.barrier()
        return True

    assert run_mpi(main, 4, deadline=30.0).values == [True] * 4
    assert handed, "four ranks ran 100 collectives and none of them parked?"
    assert min(handed) == MAX_STEP


def _functions(path):
    """``{qualified name: ast node}`` of every function in a source file."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                found[prefix + child.name] = child
                visit(child, prefix + child.name + ".")

    visit(ast.parse(path.read_text()), "")
    return {name: node for name, node in found.items()
            if isinstance(node, ast.FunctionDef)}


def test_one_park_loop_and_nobody_else_paces_a_wait():
    """``Backoff`` is constructed by the park loop and nowhere else under
    ``src/repro``, and none of the blocking waits has a loop of its own
    around its one call of the park loop."""
    src = pathlib.Path(repro.__file__).parent
    paced = set()
    for path in src.rglob("*.py"):
        for name, fn in _functions(path).items():
            if any(isinstance(n, ast.Call)
                   and getattr(n.func, "id", None) == "Backoff"
                   for n in ast.walk(fn)):
                paced.add((str(path.relative_to(src)), name))
    assert paced == {("mpi/waiting.py", "WaitContext.park")}
    for file, name in [
            ("mpi/p2p.py", "Mailbox.wait"), ("mpi/p2p.py", "Mailbox.probe"),
            ("mpi/requests.py", "SyncSendRequest.wait"),
            ("mpi/requests.py", "CounterBarrierRequest.wait"),
            ("mpi/machine.py", "Machine.rendezvous"),
            ("mpi/rma.py", "RawWindow.lock")]:
        fn = _functions(src / file)[name]
        assert not any(isinstance(n, ast.While) for n in ast.walk(fn)), name
        assert sum(isinstance(n, ast.Call)
                   and getattr(n.func, "attr", None) in ("park", "wait")
                   for n in ast.walk(fn)) == 1, name


def _bare_lock_pingpong(rounds):
    """``rounds`` round trips between two threads on two raw locks: the
    floor of what a thread hand-off costs on this machine, right now."""
    there, back = allocate_lock(), allocate_lock()
    there.acquire()
    back.acquire()

    def echo():
        for _ in range(rounds):
            there.acquire()
            back.release()

    peer = threading.Thread(target=echo, daemon=True)
    peer.start()
    t0 = time.perf_counter()
    for _ in range(rounds):
        there.release()
        back.acquire()
    elapsed = time.perf_counter() - t0
    _joined(peer)
    return elapsed


def _mailbox_pingpong(rounds):
    """The same round trips through two mailboxes, from plain threads."""
    here, there = Mailbox(), Mailbox()

    def envelope():
        return Envelope(source=0, tag=5, payload=None, nbytes=0,
                        arrival_time=0.0)

    def echo():
        for _ in range(rounds):
            there.wait(there.post(0, 5, 0.0))
            here.deposit(envelope())

    peer = threading.Thread(target=echo, daemon=True)
    peer.start()
    t0 = time.perf_counter()
    for _ in range(rounds):
        there.deposit(envelope())
        here.wait(here.post(0, 5, 0.0))
    elapsed = time.perf_counter() - t0
    _joined(peer)
    return elapsed


def test_mailbox_handoff_within_5x_of_bare_locks():
    """A blocked receive is a lock hand-off plus matching, not a timer and a
    ``threading.Event``: 2 000 mailbox round trips cost at most 5× the same
    round trips on two bare locks (measured side by side, best of three, so
    machine speed and load cancel)."""
    rounds = 2000
    _mailbox_pingpong(200)  # warm-up
    ratio = min(_mailbox_pingpong(rounds) / _bare_lock_pingpong(rounds)
                for _ in range(3))
    assert ratio <= 5.0, f"mailbox hand-off costs {ratio:.1f}x a bare lock's"
