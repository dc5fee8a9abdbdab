"""Process-backend specifics: real OS processes, selection, marshalling.

The acceptance test of the backend: p=4 ranks execute in four distinct OS
processes (distinct PIDs, none of them the parent) while producing results
bit-identical to the thread backend.
"""

from __future__ import annotations

import os
import pickle
import threading
import time

import numpy as np
import pytest

from repro.mpi import (
    BACKENDS,
    Machine,
    ProcessBackend,
    RawUsageError,
    SUM,
    ThreadBackend,
    resolve_backend,
    run_mpi,
)
from repro.mpi.machine import CommState
from repro.mpi.p2p import Mailbox
from repro.mpi.requests import ArrivalBarrier
from tests.backends.conftest import canon
from tests.conftest import runk

pytestmark = pytest.mark.slow


def _pid_and_result(comm):
    right = (comm.rank + 1) % comm.size
    comm.send(np.arange(8, dtype=np.int64) * comm.rank, right, tag=1)
    payload, st = comm.recv((comm.rank - 1) % comm.size, 1)
    total = comm.allreduce(comm.rank + 1, SUM)
    return (os.getpid(), payload, (st.source, st.nbytes), int(total))


def test_four_ranks_four_processes_bit_identical_results():
    got = run_mpi(_pid_and_result, 4, backend="process")
    ref = run_mpi(_pid_and_result, 4, backend="thread")

    pids = [v[0] for v in got.values]
    assert len(set(pids)) == 4, f"expected 4 distinct PIDs, got {pids}"
    assert os.getpid() not in pids, "ranks must not run in the parent"
    assert len({v[0] for v in ref.values}) == 1  # threads share one process

    assert canon([v[1:] for v in got.values]) == canon(
        [v[1:] for v in ref.values])
    assert got.times == ref.times
    assert got.counts == ref.counts
    assert got.backend == "process" and ref.backend == "thread"


def _runtime_classes(comm):
    mailboxes = comm.state.mailboxes
    return (type(comm.machine) is Machine, type(comm.state) is CommState,
            type(comm.state.barrier) is ArrivalBarrier,
            [r for r in range(comm.size) if type(mailboxes[r]) is Mailbox])


def test_a_process_rank_runs_the_shared_runtime_core():
    """No replicas: the one Machine / CommState / ArrivalBarrier, over a
    transport; only the rank's own endpoint is a mailbox."""
    res = run_mpi(_runtime_classes, 3, backend="process")
    for rank, value in enumerate(res.values):
        assert value == (True, True, True, [rank])


def _mixed_program(comm):
    p, r = comm.size, comm.rank
    total = comm.allreduce(r + 1, SUM)
    comm.send(np.arange(4) * r, (r + 1) % p, tag=3)
    ring, _ = comm.recv((r - 1) % p, 3)
    comm.ibarrier().wait()
    if r % 2 == 0:
        comm.ssend(("sync", r), r + 1, tag=4)
        pair = None
    else:
        pair, _ = comm.recv(r - 1, 4)
    sub = comm.split(r % 2, r)
    return int(total), ring, pair, sub.allgather(r)


@pytest.mark.parametrize("seed", [0, 7, 1234])
def test_fuzzed_process_run_is_bit_identical_to_plain_threads(seed):
    got = run_mpi(_mixed_program, 4, backend="process", fuzz_seed=seed)
    ref = run_mpi(_mixed_program, 4, backend="thread")
    assert canon(got.values) == canon(ref.values)
    assert got.times == ref.times
    assert got.counts == ref.counts


def _ibarrier_right_after_split(comm):
    # a rank that does not count the arrivals leaves split first, so its
    # arrival reaches the member that does before the communicator exists
    # there: it is held back and handed over when it is created
    for i in range(50):
        comm.split(0, comm.rank).ibarrier().wait()
    return comm.clock.now


def test_ibarrier_right_after_split_takes_the_early_arrivals():
    got = run_mpi(_ibarrier_right_after_split, 4, backend="process")
    ref = run_mpi(_ibarrier_right_after_split, 4, backend="thread")
    assert got.values == ref.values and got.times == ref.times


def _rank(comm):
    return comm.rank


def _pid(comm):
    return os.getpid()


def test_runresult_shape():
    res = run_mpi(_rank, 3, backend="process")
    assert res.values == [0, 1, 2]
    assert res.machine is None  # no shared machine exists to hand back
    assert res.failed == frozenset()
    assert res.leaks is None
    assert len(res.times) == len(res.counts) == 3


def test_env_variable_selects_backend(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "process")
    res = run_mpi(_pid, 2)
    assert res.backend == "process"
    assert os.getpid() not in res.values
    # an explicit argument beats the environment
    res = run_mpi(_pid, 2, backend="thread")
    assert res.backend == "thread"
    assert res.values == [os.getpid()] * 2


def test_resolve_backend_registry(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)  # the CI process cell
    assert isinstance(resolve_backend(None), ThreadBackend)
    assert isinstance(resolve_backend("process"), ProcessBackend)
    inst = ProcessBackend()
    assert resolve_backend(inst) is inst  # instances pass through
    assert set(BACKENDS) == {"thread", "process"}
    with pytest.raises(RawUsageError, match="unknown execution backend"):
        resolve_backend("mpi4py")


def _kamping_sum(comm):
    from repro.core import op, send_buf

    return int(comm.allreduce_single(send_buf(comm.rank + 1), op(SUM)))


def test_kamping_layer_over_process_backend():
    got = runk(_kamping_sum, 4, backend="process")
    assert got.backend == "process"
    assert got.values == [10, 10, 10, 10]


def test_backend_instance_with_start_method():
    # fork is this platform's default; passing it explicitly must behave
    # identically (spawn would require a module-level fn)
    res = run_mpi(_pid_and_result, 2, backend=ProcessBackend("fork"))
    assert len({v[0] for v in res.values}) == 2


# -- the array frame's caches and the pump that deposits straight ------------

#: Python frames (any file) a pump thread runs per delivered 8 B array
#: envelope in steady state: ``_read_array``, the envelope's ``__init__`` and
#: ``Mailbox.deposit``.  Reading the frame into a message tuple and handing
#: it on through ``_dispatch`` and ``_deliver`` took 8.
PUMP_COST = 3


def test_a_pump_delivers_an_array_envelope_in_three_frames():
    """Rank 1's transport over real pipes, its pump in this process, fed
    array frames as rank 0 would write them; no processes."""
    from multiprocessing import Pipe, heap

    from repro.mpi import ANY_TAG, WORLD_ID
    from repro.mpi.backends import process as wire

    calls, counting = [], []

    def profile(frame, event, arg):
        if event == "call" and counting:
            calls.append(frame.f_code.co_name)

    inbound, outbound = Pipe(duplex=False), Pipe(duplex=False)
    rings = {0: tuple((heap.Arena(2 * wire._HALF), threading.Semaphore(2),
                       threading.Semaphore(0)) for _ in range(2))}
    transport = wire._Transport(1, {0: (inbound[0], outbound[1])}, rings)
    machine = Machine(2, transport=transport)
    box = machine.world.mailboxes[1]
    route = pickle.dumps(WORLD_ID)

    def deliver(count):
        for i in range(count):
            frame = wire._encode(("env", route, 0, 7, np.array([i]), 8,
                                  1e-6, None))
            wire._write_frame(inbound[1].fileno(), frame)
        return [box.wait(box.post(0, ANY_TAG, 0.0)).payload[0]
                for _ in range(count)]

    previous = threading.getprofile()
    threading.setprofile(profile)  # the pump thread starts under it
    try:
        transport.start(machine)
        assert deliver(1) == [0]  # the parse entry and its mailbox: cached
        counting.append(True)
        assert deliver(50) == list(range(50))
        counting.clear()
    finally:
        threading.setprofile(previous)
        inbound[1].close()  # the pump sees EOF and ends
    for pump in [t for t in threading.enumerate() if t.name == "pump-1<0"]:
        pump.join(timeout=10)
        assert not pump.is_alive()
    for end in (inbound[0], *outbound):
        end.close()
    assert len(calls) == 50 * PUMP_COST, sorted(set(calls))


_CACHE_DTYPES = (np.dtype(np.int8), np.dtype(">f4"), np.dtype(np.complex128),
                 np.dtype("M8[s]"))


def _distinct_array(i: int) -> np.ndarray:
    """The ``i``-th array of the bounded-cache run: dtype and ndim cycle, the
    shape is mostly new; every 1000th crosses the ring."""
    ndim = 1 + (i // 4) % 3
    shape = (5000,) if i % 1000 == 999 else (
        i % 97 + 1, i % 13 + 1, i % 2)[:ndim]
    return np.arange(np.prod(shape)).astype(
        _CACHE_DTYPES[i % 4]).reshape(shape)


def _many_shapes(comm):
    count = 10_000
    if comm.rank == 0:
        for i in range(count):
            comm.send(_distinct_array(i), 1, tag=3)
        return len(comm.state.mailboxes[1]._heads)
    wrong = 0
    for i in range(count):
        got, want = comm.recv(0, 3)[0], _distinct_array(i)
        wrong += not (got.dtype == want.dtype and got.shape == want.shape
                      and np.array_equal(got, want))
    return wrong, len(comm.machine.transport._parsed[0])


@pytest.mark.parametrize("start", ["fork", "spawn"])
def test_array_caches_stay_bounded_by_dtype_and_ndim(start):
    sent_heads, (wrong, parsed) = run_mpi(
        _many_shapes, 2, backend=ProcessBackend(start)).values
    assert wrong == 0
    bound = len(_CACHE_DTYPES) * 3  # dtypes x ndims, whatever the shapes
    assert sent_heads <= bound and parsed <= bound


def _race_ahead_through_split(comm):
    """Rank 0 leaves ``split`` and sends five 8 B arrays and an ``ssend`` on
    the new communicator before rank 1 creates it: rank 1's pump stashes
    them, and they are drained in send order when the communicator is made."""
    count, machine = 6, comm.machine
    if comm.rank == 0:
        sub = comm.split(0)
        for i in range(count - 1):
            sub.send(np.array([i]), 1, tag=2)
        sub.ssend(np.array([count - 1]), 1, tag=2)
        return None
    create, stashed = machine.get_or_create_comm, []

    def late(comm_id, members, topology=None):
        if comm_id[1] == "split":  # wait until rank 0 sent all of it
            stash = machine.transport._stash
            deadline = time.monotonic() + 30
            while (len(stash.get(comm_id, ())) < count
                   and time.monotonic() < deadline):
                time.sleep(0.001)
            stashed.append(len(stash.get(comm_id, ())))
        return create(comm_id, members, topology)

    machine.get_or_create_comm = late
    sub = comm.split(0)
    return stashed, [int(sub.recv(0, 2)[0][0]) for _ in range(count)]


@pytest.mark.parametrize("start", ["fork", "spawn"])
def test_what_arrives_before_its_communicator_keeps_send_order(start):
    stashed, got = run_mpi(_race_ahead_through_split, 2,
                           backend=ProcessBackend(start)).values[1]
    assert stashed == [6] and got == list(range(6))
