"""A deterministic gate on the hit path of a wrapped call (paper §III-H).

No wall clock: the steady-state cost of a call is counted in Python frames
under ``sys.setprofile``, by the layer whose file each frame runs in, and in
plan-cache counters.  The frame bounds are what *tokens → one probe → one
closure* (DESIGN §5) comes to for the six calls the benchmark's
``bench_layers/layers.py::_bindings_main`` makes; the raw side's frames are
pinned exactly, so a bound can only be met from the numerator.
"""

import sys
from collections import Counter

import numpy as np
import pytest

from repro.core import (
    Communicator, Parameter, PlanCache, destination, grow_only, move,
    no_resize, op, recv_buf, recv_count, recv_count_out, recv_counts,
    recv_counts_out, recv_displs, recv_displs_out, register_parameter,
    resize_to_fit, root, send_buf, send_buf_out, send_count, send_counts,
    send_counts_out, send_displs, send_displs_out, send_recv_buf,
    send_recv_count, source, status_out, tag, values_on_rank_0)
from repro.core.parameters import IN, INOUT, OUT
from repro.mpi import SUM, CollectiveEngine, run_mpi
from tests.core.test_plans_and_errors import _bind_mix

#: call -> (most frames inside repro/core/, exact frames inside repro/mpi/)
FRAMES = {
    "allgatherv": (8, 10),
    "allreduce": (7, 9),
    "bcast": (7, 12),
    "alltoallv_inferred": (10, 20),
    "send": (7, 6),
    "recv": (6, 8),
}


def _frames_by_layer(call) -> Counter:
    """Python ``call`` events of one ``call()``, by the layer of their file."""
    frames: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call":
            path = frame.f_code.co_filename
            for layer in ("core", "mpi"):
                if f"/repro/{layer}/" in path:
                    frames[layer] += 1

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return frames


def _count_frames(raw) -> dict:
    comm = Communicator(raw, PlanCache())
    v, c = np.arange(8, dtype=np.int64), [8]
    calls = {
        "allgatherv": lambda: comm.allgatherv(send_buf(v), recv_counts(c)),
        "allreduce": lambda: comm.allreduce(send_buf(v), op(SUM)),
        "bcast": lambda: comm.bcast(send_recv_buf(v)),
        "alltoallv_inferred": lambda: comm.alltoallv(send_buf(v),
                                                     send_counts(c)),
        "send": lambda: comm.send(send_buf(v), destination(0)),
        "recv": lambda: comm.recv(source(0)),
    }
    counted = {}
    for name, call in calls.items():
        if name == "recv":  # two messages to self: one each for the two calls
            calls["send"](), calls["send"]()
        call()  # compiles the plan, interns the tokens: not steady state
        counted[name] = _frames_by_layer(call)
        if name == "send":
            calls["recv"](), calls["recv"]()
    return counted


@pytest.fixture(scope="module")
def frames():
    # the raw side's frames are those of a plain thread rank, whatever lane
    # (sanitizer, process backend, schedule fuzzer) the environment selects
    with pytest.MonkeyPatch.context() as env:
        env.delenv("REPRO_FUZZ_SEED", raising=False)
        return run_mpi(_count_frames, 1, backend="thread", sanitize=False,
                       engine=CollectiveEngine(env={})).values[0]


@pytest.mark.parametrize("name", FRAMES)
def test_a_steady_state_call_stays_within_its_frames(frames, name):
    most_core, exactly_mpi = FRAMES[name]
    assert frames[name]["core"] <= most_core
    assert frames[name]["mpi"] == exactly_mpi  # the denominator is untouched


def test_plan_cache_counters_stay_exact_around_the_inline_probe():
    """The probe counts its own hits, ``lookup`` the compilations: the 400
    calls of the ``bind_p1`` mix on a private cache, warm and disabled."""
    def main(raw, cache):
        _bind_mix(Communicator(raw, cache))
        return cache.compilations, cache.hits

    assert run_mpi(main, 1, args=(PlanCache(),)).values[0] == (4, 396)
    off = run_mpi(main, 1, args=(PlanCache(enabled=False),))
    assert off.values[0] == (400, 0)


def test_a_miss_and_a_stranger_take_the_lookup_path():
    """What the probe cannot answer goes to ``PlanCache.lookup``: the first
    call of a signature compiles (once), an argument that is no parameter is
    a usage error — neither is an exception out of the probe."""
    from repro.core import UsageError

    def main(raw):
        cache = PlanCache()
        comm = Communicator(raw, cache)
        comm.barrier(), comm.barrier()
        with pytest.raises(UsageError, match="must be named parameters.*int"):
            comm.allreduce(send_buf([1]), 7)
        return cache.compilations, cache.hits

    assert run_mpi(main, 1).values[0] == (1, 1)


# -- parameters: two slots, everything else read through the token -----------

V, L, NOTHING = np.arange(3), [1, 2, 3], object()
#: factory -> (key, direction, the payload to give it)
FACTORIES = {
    send_buf: ("send_buf", IN, V), send_buf_out: ("send_buf", INOUT, V),
    recv_buf: ("recv_buf", OUT, L), send_recv_buf: ("send_recv_buf", INOUT, V),
    send_counts: ("send_counts", IN, L),
    send_counts_out: ("send_counts", OUT, L),
    recv_counts: ("recv_counts", IN, L),
    recv_counts_out: ("recv_counts", OUT, L),
    send_displs: ("send_displs", IN, L),
    send_displs_out: ("send_displs", OUT, L),
    recv_displs: ("recv_displs", IN, L),
    recv_displs_out: ("recv_displs", OUT, L),
    send_count: ("send_count", IN, 3), recv_count: ("recv_count", IN, 3),
    recv_count_out: ("recv_count", OUT, L),
    send_recv_count: ("send_recv_count", IN, 3),
    op: ("op", IN, SUM), root: ("root", IN, 1),
    destination: ("destination", IN, 1), source: ("source", IN, 1),
    tag: ("tag", IN, 1), values_on_rank_0: ("values_on_rank_0", IN, 0),
    status_out: ("status", OUT, NOTHING),
}


def test_parameter_has_two_slots():
    assert Parameter.__slots__ == ("data", "token")


@pytest.mark.parametrize("factory", FACTORIES, ids=lambda f: f.__name__)
def test_every_factory_reads_back_what_it_was_given(factory):
    key, direction, payload = FACTORIES[factory]
    p = factory() if payload is NOTHING else factory(payload)
    assert (p.key, p.direction, p.resize, p.moved) == (
        key, direction, no_resize, False)
    assert p.data is (None if payload is NOTHING else payload)
    assert p.signature() is p.token
    assert (p.token.key, p.token.direction) == (key, direction)
    assert p.token.has_data == (payload is not NOTHING)


@pytest.mark.parametrize("factory", [
    recv_buf, send_recv_buf, send_counts_out, recv_counts_out,
    send_displs_out, recv_displs_out], ids=lambda f: f.__name__)
def test_move_and_resize_take_the_interning_path(factory):
    plain, moved = factory(L), factory(move(L))
    assert moved.data is L and moved.moved and not plain.moved
    assert moved.token is not plain.token
    assert factory(move([4])).token is moved.token
    for policy in (grow_only, resize_to_fit):
        resized = factory(L, policy)
        assert resized.resize is policy and resized.data is L
        assert resized.token is factory([], resize=policy).token
        assert resized.token is not plain.token
    assert factory(L).token is plain.token  # the default is not disturbed


def test_one_token_per_payload_type_and_factory():
    assert send_buf(V).token is send_buf(np.zeros(9)).token
    assert send_buf(V).token is not send_buf(L).token
    assert send_buf(V).token is not send_buf_out(V).token
    assert send_buf(L).token.kind == "list"
    assert recv_buf().token is recv_buf(None).token
    assert not recv_buf().token.has_data


def test_a_plugin_parameter_built_directly_reads_back_too():
    key = register_parameter("hit_path_plugin_key")
    p = Parameter(key, IN, L)
    assert (p.key, p.direction, p.resize, p.moved, p.data) == (
        key, IN, no_resize, False, L)
    assert p.signature() is Parameter(key, IN, [0]).token
    assert Parameter("send_buf", IN, V).token is send_buf(V).token
    moved = Parameter(key, OUT, move(L), grow_only)
    assert (moved.moved, moved.resize, moved.data) == (True, grow_only, L)
