"""The process transport's codec, without processes.

``_encode`` picks one of two frames from what a message carries, and the
pump's two readers (``_read_array``, ``_read_pickled``) turn either back
into the message; here they are driven through a ``BytesIO`` exactly as
``_Transport._pump`` drives them (the 8-byte prefix parsed here, a parse
cache per pipe), so that every payload of ``test_wire``'s zoo, every
truncation point and the sync token are checked on the bytes themselves.
The last test crosses real processes once, for the token's ack.

Rank functions are module-level: CI reruns this file under ``spawn``.
"""

from __future__ import annotations

import io
import os
import pickle
import struct
import sys
import threading
from multiprocessing import heap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.mpi import run_mpi
from repro.mpi.backends import process as wire
from tests.backends.test_wire import _describe, _zoo

ROUTE = pickle.dumps((("world",), "split", 3, 1))

#: the zoo payloads that are exactly an ndarray, C-contiguous, of a plain dtype
ARRAY_FRAME = {"read_only", "c_2d", "zero_length", "zero_d", "big_endian",
               "big_endian_datetime", "bool"}


def _env(payload, token=None) -> tuple:
    nbytes = payload.nbytes if isinstance(payload, np.ndarray) else 17
    return ("env", ROUTE, 3, -1_000_067, payload, nbytes, 1.25e-6, token)


def _wire_bytes(msg) -> bytes:
    return b"".join(bytes(part) for part in wire._encode(msg))


def _is_array_frame(blob: bytes) -> bool:
    return wire._PREFIX.unpack_from(blob)[1] == wire._ARRAY


def _read_message(frames, ring=None, parsed=None) -> tuple:
    """One frame back into its message tuple, read as the pump reads it: a
    short prefix is a ``struct.error``, a short rest an ``EOFError``."""
    header_len, nbuf = wire._PREFIX.unpack(frames.read(wire._PREFIX.size))
    ring = ring if header_len & wire._RING else None
    header_len &= ~wire._RING
    if nbuf != wire._ARRAY:
        return wire._read_pickled(frames, header_len, nbuf, ring)
    entry, env, token = wire._read_array(
        frames, header_len, ring, {} if parsed is None else parsed)
    return ("env", entry[2], env.source, env.tag, env.payload, env.nbytes,
            env.arrival_time, None if token < 0 else token)


def _round_trip(msg) -> tuple:
    return _read_message(io.BytesIO(_wire_bytes(msg)))


@pytest.mark.parametrize("name", _zoo())
def test_each_zoo_payload_takes_its_frame_and_survives_it(name):
    payload = _zoo()[name]
    msg = _env(payload)
    assert _is_array_frame(_wire_bytes(msg)) == (name in ARRAY_FRAME)
    got = _round_trip(msg)
    assert got[:4] + got[5:] == msg[:4] + msg[5:]
    # dtype string, shape, memory order and bytes as sent; always writeable
    assert _describe(got[4]) == _describe(payload, writeable=True)
    if isinstance(payload, np.ndarray):
        assert not np.shares_memory(got[4], payload)
        got[4][...] = got[4]  # writeable in fact, not only by its flag


def test_only_a_read_only_buffer_inside_a_pickle_is_deep_copied(monkeypatch):
    copies = []
    real = wire.copy.deepcopy
    monkeypatch.setattr(wire.copy, "deepcopy",
                        lambda obj: copies.append(1) or real(obj))
    zoo = _zoo()
    assert _round_trip(_env(zoo["read_only"]))[4].flags.writeable
    assert copies == []
    assert _round_trip(_env(zoo["read_only_nested"]))[4]["frozen"].flags.writeable
    assert copies == [1]


@pytest.mark.parametrize("name", ["c_2d", "fortran_2d", "dict", "bytes"])
def test_a_frame_cut_short_anywhere_is_an_eof(name):
    payload = _zoo()[name]
    payload = payload[:300] if name == "bytes" else payload
    blob = _wire_bytes(_env(payload, token=5))
    assert _is_array_frame(blob) == (name == "c_2d")
    for cut in range(len(blob)):
        with pytest.raises((EOFError, struct.error)):
            _read_message(io.BytesIO(blob[:cut]))
    # whole frames leave the next one whole, through one parse cache
    stream, parsed = io.BytesIO(blob + blob), {}
    assert (_read_message(stream, parsed=parsed)[7]
            == _read_message(stream, parsed=parsed)[7] == 5)


def test_control_messages_take_the_pickled_frame():
    for msg in (("ack", 4, 2.5e-6), ("bar", ("world",), 2, 1e-6),
                ("bardone", ("world",), 2, 3e-6), ("abort", 1)):
        assert not _is_array_frame(_wire_bytes(msg))
        assert _round_trip(msg) == msg


@pytest.mark.parametrize("token", [None, 0, 2**40])
def test_the_sync_token_survives_either_frame(token):
    for payload in (np.arange(3), [np.arange(3)]):
        assert _round_trip(_env(payload, token))[7] == token


def _sync_arrays(comm):
    """``ssend`` and ``issend`` of arrays: the sender's clock after each is
    the receiver's match clock, which only the ack carries across."""
    clocks = []
    if comm.rank == 0:
        comm.ssend(np.arange(5, dtype=np.float32), 1, 1)
        clocks.append(comm.clock.now)
        comm.issend(np.ones((3, 3)), 1, 2).wait()
        clocks.append(comm.clock.now)
    else:
        comm.compute(3e-5)  # the match is later than the arrival
        for tag in (1, 2):
            clocks.append((comm.recv(0, tag)[0].tolist(), comm.clock.now))
    return clocks


def test_a_synchronous_array_send_is_acked_with_the_match_clock(differential):
    sender, receiver = differential(_sync_arrays, 2).values
    assert sender[0] >= 3e-5 and sender[1] > sender[0]
    assert receiver[0][0] == [0.0, 1.0, 2.0, 3.0, 4.0]


_DTYPES = st.one_of(
    hnp.integer_dtypes(endianness="?"), hnp.unsigned_integer_dtypes(),
    hnp.floating_dtypes(endianness="?"), hnp.complex_number_dtypes(),
    hnp.boolean_dtypes(), hnp.byte_string_dtypes(max_len=5),
    hnp.unicode_string_dtypes(max_len=3),
    hnp.datetime64_dtypes(endianness="?"),
    hnp.timedelta64_dtypes(endianness="?"),
    hnp.array_dtypes(hnp.integer_dtypes(endianness="?"), max_size=2))


@pytest.mark.slow
@settings(max_examples=200, deadline=None)
@given(st.data(), _DTYPES, hnp.array_shapes(min_dims=0, max_dims=4,
                                            min_side=0, max_side=4),
       st.sampled_from("CF"))
def test_any_dtype_and_shape_round_trips_on_the_frame_it_qualifies_for(
        data, dtype, shape, order):
    arr = np.array(data.draw(hnp.arrays(dtype, shape)), order=order)
    plain = (arr.flags.c_contiguous and arr.dtype.names is None
             and arr.dtype.kind not in "OV")
    msg = _env(arr)
    assert _is_array_frame(_wire_bytes(msg)) == plain
    got = _round_trip(msg)[4]
    # the pickled frame is numpy's pickle, which hands a datetime or
    # timedelta back in native byte order; everything else is as sent
    sent = arr if plain else pickle.loads(pickle.dumps(arr, protocol=5))
    assert _describe(got) == _describe(sent, writeable=True)


# -- the shared-memory ring, one writer thread and one reader thread ----------


class _Counted(threading.Semaphore):
    """A semaphore that logs each release by name into ``log``."""

    def __init__(self, value, name, log):
        super().__init__(value)
        self._name, self._log = name, log

    def release(self, n=1):
        self._log.append(self._name)
        super().release(n)


def _ring_pair(log=None):
    """A writer's and a reader's end of one ring, as two ranks would hold
    them, and the pipe beside it."""
    log = [] if log is None else log
    parts = (heap.Arena(2 * wire._HALF), _Counted(2, "free", log),
             _Counted(0, "chunk", log))
    read_fd, write_fd = os.pipe()
    return wire._Ring(*parts), wire._Ring(*parts), read_fd, write_fd, parts


#: buffer sizes around the ring's edges: below, at and above the eager limit,
#: and one chunk, two and three with odd remainders
_RING_SIZES = (1, wire._EAGER - 1, wire._EAGER, wire._HALF - 1, wire._HALF,
               wire._HALF + 1, 2 * wire._HALF + 1, 3 * wire._HALF + 7)


def _ring_messages(count=120, seed=5):
    rng = np.random.default_rng(seed)
    for i in range(count):
        sizes = rng.choice(_RING_SIZES, size=int(rng.integers(1, 4)))
        arrays = [np.full(n, (i + k) % 251, dtype=np.uint8)
                  for k, n in enumerate(sizes)]
        # one array alone takes the array frame, several a pickled one
        yield _env(arrays[0] if len(arrays) == 1 else arrays, token=i)


def test_the_ring_carries_many_odd_sized_frames_in_order():
    writer, reader, read_fd, write_fd, (_, free, full) = _ring_pair()
    sent = list(_ring_messages())

    def write_all():
        for msg in sent:
            writer.write(write_fd, wire._encode(msg))

    thread = threading.Thread(target=write_all)
    thread.start()
    with open(read_fd, "rb") as frames:
        parsed = {}
        got = [_read_message(frames, reader, parsed) for _ in sent]
    thread.join(timeout=30)
    os.close(write_fd)
    assert not thread.is_alive()
    for msg, back in zip(sent, got):
        assert back[7] == msg[7]
        assert _describe(back[4]) == _describe(msg[4], writeable=True)
    chunks = sum(-(-a.nbytes // wire._HALF) for msg in sent
                 for a in (msg[4] if isinstance(msg[4], list) else [msg[4]])
                 if a.nbytes >= wire._EAGER)
    # both ends counted every chunk, and every credit is back
    assert writer._chunks == reader._chunks == chunks > 2 * len(sent)
    assert free.acquire(blocking=False) and free.acquire(blocking=False)
    assert not free.acquire(blocking=False)
    assert not full.acquire(blocking=False)


def test_two_chunks_are_in_the_ring_before_the_header_is_on_the_pipe(
        monkeypatch):
    log = []
    real = wire._write_frame
    monkeypatch.setattr(
        wire, "_write_frame",
        lambda fd, parts: log.append("pipe") or real(fd, parts))
    writer, reader, read_fd, write_fd, _ = _ring_pair(log)
    payload = np.arange(3 * wire._HALF // 8, dtype=np.int64)  # three chunks
    thread = threading.Thread(
        target=writer.write, args=(write_fd, wire._encode(_env(payload))))
    thread.start()
    with open(read_fd, "rb") as frames:
        got = _read_message(frames, reader)[4]
    thread.join(timeout=30)
    os.close(write_fd)
    assert (got == payload).all()
    writes = [entry for entry in log if entry != "free"]
    assert writes == ["chunk", "chunk", "pipe", "chunk"]


# -- the send side of one message, pinned without a wall clock ----------------

#: for one steady-state ``raw.send`` from a process rank's main thread:
#: Python frames inside repro/mpi/, C calls of ``_pickle.dumps``.  With every
#: envelope pickled (before the array frame) the ndarray row read (20, 1);
#: with the header built per message instead of from the outbox's cache, (9, 0).
SEND_COST = {"ndarray": (7, 0), "list": (18, 1)}


def _count_send(raw) -> dict:
    payloads = {"ndarray": np.arange(8, dtype=np.int64), "list": [1, 2, 3]}
    counted = {}
    for name, payload in payloads.items():
        if raw.rank == 1:
            raw.recv(0), raw.recv(0)
            continue
        frames = dumps = 0

        def profile(frame, event, arg):
            nonlocal frames, dumps
            if event == "call":
                frames += "/repro/mpi/" in frame.f_code.co_filename
            elif event == "c_call":
                dumps += arg is pickle.dumps

        raw.send(payload, 1)  # the route, the plan of the call: steady state
        sys.setprofile(profile)
        try:
            raw.send(payload, 1)
        finally:
            sys.setprofile(None)
        counted[name] = (frames, dumps)
    return counted


@pytest.mark.slow
def test_an_array_is_sent_without_a_pickle_and_a_list_with_one(monkeypatch):
    monkeypatch.delenv("REPRO_FUZZ_SEED", raising=False)
    res = run_mpi(_count_send, 2, backend="process")
    assert res.values[0] == SEND_COST
