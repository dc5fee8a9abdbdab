"""One-OS-process-per-rank execution backend.

Ranks are ``multiprocessing`` processes; every ordered rank pair owns one
simplex pipe and one shared-memory ring (:class:`_Ring`), and envelopes
cross them as self-framed messages.  This module is a *transport* and a
launcher, not a second runtime: each rank builds the shared
:class:`~repro.mpi.machine.Machine` over its :class:`_Transport`, so its
own endpoint of every communicator is a real
:class:`~repro.mpi.p2p.Mailbox` and every other rank's is a
:class:`_RemoteMailbox` that writes the envelope down the pipe to the peer,
whose pump thread for that pipe deposits it into the mailbox over there.
Matching, clocks, algorithms, the arrival barrier, failure checks and the
run's epilogue are the very code the thread backend runs, so a wildcard-free
program produces bit-identical results, virtual times, PMPI counters, and
traces on both backends (``tests/backends/`` enforces this).

Wire protocol.  One message is one frame, FIFO per pipe; :func:`_encode`
picks the frame from what the message carries.  An envelope whose payload is
exactly an ``ndarray``, C-contiguous, of a plain dtype (``_PLAIN_KINDS``: no
object, structured or void arrays) takes the *array frame*, which pickles
nothing; every other message — F-ordered, strided and structured arrays,
``bytes``, scalars, the nested lists, tuples and dicts the collective
schedules ship, and the control messages — takes the *pickled frame*::

    <II       header length, 0xFFFFFFFF     |  <II  header length, count n
    <qqQdqBB  source, tag, nbytes, arrival  |  <nQ  the n buffer lengths
              time, sync token or -1, ndim, |  header   protocol-5 pickle of
              len(dtype.str)                |      the message tuple; every
    dtype.str, <ndimQ shape, route          |      contiguous buffer inside
    the nbytes of the array, raw            |      it is left out of band
                                            |  the n buffers, raw

A buffer of ``_EAGER`` bytes or more (32 KiB, half a pipe) crosses the
ring instead: the sender sets ``_RING``, the top bit of the header length,
and copies each such buffer into the ring in chunks of at most one half
(``_HALF``, 256 KiB), the first two before the header goes down the pipe;
the rest of the frame takes the pipe.  The sender gather-writes with
``os.writev`` straight from the payload's own memory, under a
per-destination lock; the receiver reads each buffer straight into the
``np.empty`` array the payload then keeps as its storage, never zero-filled.
Those are the only two copies a buffer pays (into the pipe or ring, out).
Encoding finishes before the first byte is written, so an unpicklable
payload raises without leaving half a frame behind.  No send-time snapshot
is taken: the blocking write has copied the bytes out of the caller's buffer
before the send returns, and the pump deposits what it read as ``fresh``.
What arrives is what a snapshot would be: same dtype, shape and memory
order, private, and writeable even if the sent array was not (a *pickled*
message holding a read-only buffer is deep-copied first, the one case that
pays a third copy).  A ``datetime64`` / ``timedelta64`` array keeps its byte
order on the array frame and arrives in native byte order on the pickled one.

Both ends of the array frame work from caches keyed only by what is fixed
per communicator.  A :class:`_RemoteMailbox` keeps per dtype and ndim a
``Struct`` of the whole header and its constant bytes (prefix, ndim with
``dtype.str``, route): a header is one ``pack``, a frame one locked
``os.writev``.  A pipe's pump keeps per ndim, ``dtype.str`` and route the
dtype, the shape's ``Struct`` and the mailbox (the registry's answer, once),
and deposits an ``Envelope`` built straight from the unpacked fields.

The messages (what a frame carries; the pump deposits an envelope without
building its tuple):

- ``("env", route, source, tag, payload, nbytes, arrival_time, token)`` —
  ``route`` is ``pickle.dumps(comm_id)``; ``token`` is the sender's counter
  for a synchronous send, else ``None``, echoed back as ``("ack", token,
  match_clock)`` when the receiver matches.
- ``("bar", comm_id, epoch, clock)`` / ``("bardone", comm_id, epoch, t)`` —
  an arrival sent to, and the completion time sent back by, the member with
  the lowest world rank, which counts the non-blocking barrier's arrivals
  (:class:`~repro.mpi.requests.ArrivalBarrier`).
- ``("abort", world_rank)`` — sent to every peer by a rank whose ``fn``
  raised (``Machine.abort``), before it reports ``done``.  The receiver's
  ``Machine.mark_failed`` interrupts whoever is parked, so a receive, probe,
  synchronous send or ``ibarrier`` wait that involves the rank raises
  :class:`~repro.mpi.errors.RawProcessFailure` at once instead of sleeping
  out the deadline (the parent reports the root cause, not the peers').

``ack``, ``bar``, ``bardone`` and ``abort`` are *control frames*
(:meth:`_Transport.send`): queued per destination and written only if the
pipe's lock is free — else by whoever holds it, before letting go.  Pump
threads send them, and a pump that waited for the lock behind its own rank's
blocked write would stop draining the pipe the peer is blocked on in turn.
They may therefore overtake an envelope; nothing orders the two.

The parent coordinates startup and teardown over a per-rank control pipe:
every child reports ``up``, the parent releases them all with ``start``
(so no rank runs user code before every pipe endpoint is live), each child
reports ``done`` with its marshalled result, and only when *all* ranks have
reported does the parent send ``exit`` — a late fire-and-forget send can
therefore never hit a closed pipe.

What this backend does **not** provide — and refuses loudly
(:class:`~repro.mpi.errors.UnsupportedOnBackend`) rather than emulating
badly — is what still needs one shared address space: MPIsan resource
auditing, fault-injection campaigns and ULFM failure coordination.  The
seeded schedule fuzzer is the shared one: every child builds
``ScheduleFuzzer(seed)``, whose streams are keyed by thread name, and names
its main thread ``rank-<r>`` as the thread backend does.
Note the ambient ``REPRO_SANITIZE`` environment default is deliberately
*ignored* here: it opts the thread backend into extra checking, and honoring
it would make ``REPRO_BACKEND=process`` unrunnable under a sanitizing CI
lane.  Only an explicit ``sanitize=True`` / ``faults=`` argument is an
error.  A hang ends as on threads: a wait past the deadline raises
:class:`~repro.mpi.errors.RawDeadlockError` in the rank, whose report
carries its own stack (the one rank thread its process sees), and the parent
ends a run still going ``deadline + RUN_GRACE`` seconds after launch.

Constraints: ``fn``, ``args``, payloads, and return values must be
picklable.  The start method defaults to ``fork`` where available (so
closures and lambdas work, exactly like the thread backend); set
``REPRO_PROCESS_START=spawn`` (or pass ``ProcessBackend("spawn")``) to use a
spawn context, under which ``fn`` must be a module-level callable.
"""

from __future__ import annotations

import copy
import itertools
import multiprocessing
import os
import pickle
import struct
import threading
import time
import traceback
from collections import deque
from multiprocessing import connection as mp_connection, heap
from typing import Any, Callable, Hashable, Optional, Sequence

import numpy as np

from repro.mpi.backends.base import (
    RUN_GRACE,
    Backend,
    RankReport,
    resolve_tracer,
)
from repro.mpi.costmodel import CostModel
from repro.mpi.engine import CollectiveEngine
from repro.mpi.errors import (
    RawDeadlockError,
    RawUsageError,
    UnsupportedOnBackend,
    unsupported,
)
from repro.mpi.machine import CommState, Machine, RunResult
from repro.mpi.p2p import Envelope
from repro.mpi.sanitizer import ScheduleFuzzer
from repro.mpi.tracing import TraceRecorder
from repro.mpi.watchdog import attach_stacks


# ---------------------------------------------------------------------------
# transport: framed simplex pipes, pump threads, sync-send acks
# ---------------------------------------------------------------------------

#: start of every frame: header length, out-of-band buffer count
_PREFIX = struct.Struct("<II")
#: in the buffer count's place, where no pickled frame reaches: an array frame
_ARRAY = 0xFFFFFFFF
#: an array frame's header opens with: source, tag, nbytes, arrival time,
#: sync token or -1, ndim, len(dtype.str)
_ENV = struct.Struct("<qqQdqBB")
#: dtype kinds whose bytes are the whole value and ``dtype.str`` the whole
#: type (a datetime's unit included): not object, structured, void or
#: variable-width string
_PLAIN_KINDS = "biufcmMSU"
_IOV_MAX = os.sysconf("SC_IOV_MAX")
#: a receive buffer's dtype, made once: ``np.empty(n, np.uint8)`` converts
#: the type on every call, which costs an 8-byte message 0.2 µs
_BYTE = np.dtype(np.uint8)
#: a frame buffer this large or larger crosses the rank pair's ring, not the
#: pipe: half a pipe's capacity
_EAGER = 32 << 10
#: bytes in each half of a ring: the most one chunk, one credit, carries
_HALF = 256 << 10
#: set in a ring frame's header length: each of its buffers of ``_EAGER``
#: bytes or more is in the ring, cut into chunks of at most ``_HALF``
_RING = 1 << 31


def _pickle(msg: tuple) -> tuple[bytes, list[memoryview]]:
    buffers: list[pickle.PickleBuffer] = []
    header = pickle.dumps(msg, protocol=5, buffer_callback=buffers.append)
    return header, [b.raw() for b in buffers]


def _array_header(heads: dict, route: bytes, source: int, tag: int,
                  payload: np.ndarray, nbytes: int, arrival_time: float,
                  token: int) -> Optional[bytes]:
    """The array frame's header for ``payload``, or ``None`` for the pickled
    frame; ``heads`` caches per dtype and ndim a packer of the whole header
    and its constant bytes (prefix; ndim, ``len(dtype.str)``, dtype.str)."""
    if not payload.flags.c_contiguous:
        return None
    head = heads.get((payload.dtype, payload.ndim))
    if head is None:
        name, ndim = payload.dtype.str.encode(), payload.ndim
        packer = struct.Struct(f"<8sqqQdq{2 + len(name)}s{ndim}Q{len(route)}s")
        head = heads[payload.dtype, ndim] = (
            packer.pack, _PREFIX.pack(packer.size - _PREFIX.size, _ARRAY),
            bytes((ndim, len(name))) + name,
        ) if payload.dtype.kind in _PLAIN_KINDS else ()
    if not head:
        return None
    pack, prefix, name = head
    return pack(prefix, source, tag, nbytes, arrival_time, token, name,
                *payload.shape, route)


def _encode(msg: tuple) -> list:
    """Serialise ``msg`` into the gather list of one frame: the array frame
    for an envelope holding a plain C-contiguous ``ndarray``, else the pickled
    one.  Everything that can fail on the payload's account happens here,
    before a byte is written.  The buffers in the list alias the sender's.
    """
    if msg[0] == "env" and type(msg[4]) is np.ndarray:
        payload, token = msg[4], -1 if msg[7] is None else msg[7]
        header = _array_header({}, *msg[1:7], token)
        if header is not None:  # then its bytes (a datetime has no format)
            if payload.dtype.kind in "mM":
                payload = payload.view(np.int64)
            frame = [header, pickle.PickleBuffer(payload).raw()]
            return frame if msg[5] else frame[:1]
    header, views = _pickle(msg)
    if any(v.readonly for v in views):
        # pickle would mark the receiver's buffer read-only too, but a
        # receiver owns what it receives: ship a (writeable) deep copy
        header, views = _pickle(copy.deepcopy(msg))
    prefix = _PREFIX.pack(len(header), len(views)) + struct.pack(
        f"<{len(views)}Q", *(v.nbytes for v in views))
    return [prefix, header, *(v for v in views if v.nbytes)]


def _write_frame(fd: int, parts: list) -> None:
    """Gather-write ``parts`` (none empty), resuming partial writes."""
    i = 0
    while i < len(parts):
        n = os.writev(fd, parts[i:i + _IOV_MAX])
        while n:
            size = len(parts[i])
            if n < size:
                parts[i] = memoryview(parts[i])[n:]
                break
            n -= size
            i += 1


def _read_into(frames, size: int, ring: Optional["_Ring"]) -> np.ndarray:
    if ring is not None and size >= _EAGER:
        return ring.read(size)
    buf = np.empty(size, _BYTE)
    if size and frames.readinto(buf) < size:
        raise EOFError
    return buf


def _read_array(frames, size: int, ring: Optional["_Ring"],
                parsed: dict) -> tuple:
    """Read the rest of an array frame into ``(entry, envelope, sync token or
    -1)``; ``parsed`` caches per ndim, dtype string and route ``entry``:
    ``[dtype, shape unpacker, route, mailbox or None]`` (the pump fills it)."""
    header = frames.read(size)
    if len(header) < size:
        raise EOFError
    source, tag, nbytes, arrival_time, token, ndim, name_len = (
        _ENV.unpack_from(header))
    shape_at = _ENV.size + name_len
    key = header[_ENV.size - 2:shape_at], header[shape_at + 8 * ndim:]
    entry = parsed.get(key)
    if entry is None:
        entry = parsed[key] = [np.dtype(key[0][2:].decode()),
                               struct.Struct(f"<{ndim}Q").unpack_from,
                               key[1], None]
    shape = entry[1](header, shape_at)
    if ring is not None and nbytes >= _EAGER:
        payload = np.ndarray(shape, entry[0], ring.read(nbytes))
    else:  # the payload's own (np.empty) storage is what the bytes land in
        payload = np.empty(shape, entry[0])
        if nbytes and frames.readinto(payload) < nbytes:
            raise EOFError
    return entry, Envelope(source, tag, payload, nbytes, arrival_time), token


def _read_pickled(frames, size: int, nbuf: int,
                  ring: Optional["_Ring"]) -> tuple:
    """Read the rest of a pickled frame (``nbuf`` buffers) into its message."""
    data = frames.read(8 * nbuf + size)
    if len(data) < 8 * nbuf + size:
        raise EOFError
    return pickle.loads(memoryview(data)[8 * nbuf:], buffers=[
        _read_into(frames, n, ring)
        for n in struct.unpack_from(f"<{nbuf}Q", data)])


class _Ring:
    """The bulk channel of one ordered rank pair: two halves of shared memory
    and two semaphores that count the halves free and full.  Its writer is
    whoever holds the pair's send lock in the sending rank, its reader the
    pair's pump in the receiving one; each side counts the chunks it has
    moved, and chunk ``k`` sits in half ``k & 1``.
    """

    def __init__(self, arena, free, full):
        self._mem = memoryview(arena.buffer)
        self._free, self._full = free, full
        self._chunks = 0

    def _put(self, chunk: memoryview) -> None:
        self._free.acquire()
        at = (self._chunks & 1) * _HALF
        self._chunks += 1
        self._mem[at:at + len(chunk)] = chunk
        self._full.release()

    def read(self, size: int) -> np.ndarray:
        """Copy the next ``size`` bytes out of the ring, chunk by chunk."""
        buf = np.empty(size, _BYTE)
        out = memoryview(buf)
        for start in range(0, size, _HALF):
            end = min(start + _HALF, size)
            self._full.acquire()
            at = (self._chunks & 1) * _HALF
            self._chunks += 1
            out[start:end] = self._mem[at:at + end - start]
            self._free.release()
        return buf

    def write(self, fd: int, frame: list) -> None:
        """Write ``frame`` as a ring frame: each buffer of ``_EAGER`` bytes or
        more goes into the ring, the rest of the frame down the pipe ``fd``.
        Two chunks may go in ahead of the pipe parts before them, the ring's
        capacity: so the first two precede the header, and the pump that the
        header wakes finds them waiting.
        """
        header_len, nbuf = _PREFIX.unpack_from(frame[0])
        first = 1 if nbuf == _ARRAY else 2  # the buffers follow the header
        pipe = [_PREFIX.pack(header_len | _RING, nbuf)
                + frame[0][_PREFIX.size:], *frame[1:first]]
        early = 2
        for part in frame[first:]:
            if len(part) < _EAGER:
                pipe.append(part)
                continue
            for at in range(0, len(part), _HALF):
                if early:
                    early -= 1
                elif pipe:
                    _write_frame(fd, pipe)
                    pipe = []
                self._put(part[at:at + _HALF])
        if pipe:
            _write_frame(fd, pipe)


class _AckGate(tuple):
    """Receiver-side stand-in for a synchronous send's match gate, built as
    ``(transport, peer_world, token, env)``: the match stamps ``match_clock``
    and opens it, which ships it back to open the sender's envelope's gate."""

    def open(self) -> None:
        transport, peer_world, token, env = self
        transport.send(peer_world, ("ack", token, env.match_clock))


class _RemoteMailbox:
    """Send-side proxy for a peer rank's mailbox: ``deposit`` writes the
    envelope down the pipe; the peer's pump thread deposits it into the real
    :class:`~repro.mpi.p2p.Mailbox` over there.  Only ``deposit`` exists —
    probing and receiving always target the rank's own (local) mailbox.
    """

    __slots__ = ("_transport", "_route", "_dest_world", "_heads", "_fd",
                 "_lock")

    def __init__(self, transport: "_Transport", comm_id: Hashable,
                 dest_world: int):
        self._transport = transport
        #: the id as every envelope carries it, and the receiver's cache key
        self._route = pickle.dumps(comm_id)
        self._dest_world = dest_world
        #: per dtype and ndim, the array frame's header parts
        self._heads: dict[tuple, tuple] = {}
        self._fd = transport._pipes[dest_world][1].fileno()
        self._lock = transport._send_locks[dest_world]

    def deposit(self, env: Envelope) -> None:
        transport, payload, nbytes = self._transport, env.payload, env.nbytes
        token = -1 if env.sync_gate is None else next(transport._sync_counter)
        header = _array_header(self._heads, self._route, env.source, env.tag,
                               payload, nbytes, env.arrival_time, token) if (
            type(payload) is np.ndarray and nbytes < _EAGER) else None
        if header is None:
            try:
                frame = _encode((
                    "env", self._route, env.source, env.tag, payload, nbytes,
                    env.arrival_time, None if token < 0 else token))
            except (pickle.PicklingError, TypeError, AttributeError,
                    ValueError) as exc:
                raise RawUsageError(
                    f"payload of type {type(payload).__name__} could not be "
                    f"pickled for the process-backend transport: {exc}"
                ) from exc
        if token >= 0:
            with transport._sync_lock:
                transport._sync[token] = env
        with self._lock:  # blocks while the pipe (or the ring) is full
            if header is not None:
                written = os.writev(self._fd, (header, payload))
                if written < len(header) + nbytes:  # resume a partial write
                    _write_frame(self._fd, [
                        (header + payload.tobytes())[written:]])
            elif max(map(len, frame)) < _EAGER:
                _write_frame(self._fd, frame)
            else:
                transport._rings[self._dest_world][1].write(self._fd, frame)
        if transport._control[self._dest_world]:  # queued while ours
            transport._flush(self._dest_world)


class _Transport:
    """One rank's pipe ends and rings plus the pump threads that drain them:
    what the rank's :class:`~repro.mpi.machine.Machine` reaches the other
    ranks by (``rank``, ``outbox``, ``send``, ``stash``, ``drain``,
    ``abort``).

    ``pipes`` maps each peer to ``(from_peer, to_peer)``, the read end of
    one simplex pipe and the write end of the other; ``rings`` maps it to
    the ``(arena, free, full)`` of the ring each way.  Frames to one peer are
    written under a per-destination lock (the rank's main thread and its
    pump threads — acks, barrier broadcasts — both send), so they never
    interleave; a control frame (:meth:`send`) never waits for that lock.
    Envelopes for communicators this rank has not locally created yet are
    stashed (``Machine.comm_or_stash``) and drained (``get_or_create_comm``)
    under the registry lock, in per-pair FIFO order.
    """

    def __init__(self, rank: int, pipes: dict[int, tuple[Any, Any]],
                 rings: dict[int, tuple[tuple, tuple]]):
        #: the one world rank that lives on this side of the pipes
        self.rank = rank
        self._pipes = pipes
        #: per peer, the ring read from it and the one written to it
        self._rings = {w: (_Ring(*inbound), _Ring(*outbound))
                       for w, (inbound, outbound) in rings.items()}
        self._send_locks = {w: threading.Lock() for w in pipes}
        #: per destination, encoded control frames not written yet
        self._control: dict[int, deque] = {w: deque() for w in pipes}
        self._machine: Optional[Machine] = None
        self._stash: dict[Hashable, list] = {}
        #: per peer, its pipe's parse entries (a pickled envelope's: by route)
        self._parsed: dict[int, dict] = {w: {} for w in pipes}
        self._sync: dict[int, Envelope] = {}
        self._sync_lock = threading.Lock()
        self._sync_counter = itertools.count()

    # -- sending -----------------------------------------------------------

    def outbox(self, comm_id: Hashable, world: int) -> _RemoteMailbox:
        return _RemoteMailbox(self, comm_id, world)

    def send(self, world: int, msg: tuple) -> None:
        """Queue a control frame and write it unless the pipe is taken:
        whoever holds it flushes the queue on letting go."""
        self._control[world].append(_encode(msg))
        self._flush(world)

    def _flush(self, world: int) -> None:
        queue, lock = self._control[world], self._send_locks[world]
        fd = self._pipes[world][1].fileno()
        # re-checked after every release: a frame queued while we held the
        # lock, by a sender whose own try then failed, is ours to write
        while queue and lock.acquire(blocking=False):
            try:
                while queue:
                    _write_frame(fd, queue.popleft())
            finally:
                lock.release()

    def abort(self) -> None:
        """Tell every peer this rank's ``fn`` raised, so receives blocked on
        it fail at once instead of at the deadline."""
        for world in self._pipes:
            try:
                self.send(world, ("abort", self.rank))
            except OSError:  # that peer is already gone
                pass

    # -- receiving ---------------------------------------------------------

    def start(self, machine: Machine) -> None:
        """One blocking reader per peer pipe: per-pair FIFO by construction."""
        self._machine = machine
        for world, (from_peer, _) in self._pipes.items():
            threading.Thread(
                target=self._pump,
                args=(world, from_peer, self._rings[world][0]),
                name=f"pump-{self.rank}<{world}", daemon=True,
            ).start()

    def _pump(self, peer: int, from_peer, ring: _Ring) -> None:
        """Read ``peer``'s pipe: an envelope goes straight into the mailbox its
        parse entry holds, any other message through :meth:`_dispatch`."""
        parsed = self._parsed[peer]
        with open(from_peer.fileno(), "rb", closefd=False) as frames:
            while True:
                try:
                    header_len, nbuf = _PREFIX.unpack(
                        frames.read(_PREFIX.size))  # short: struct.error
                    here = ring if header_len & _RING else None
                    header_len &= ~_RING
                    if nbuf == _ARRAY:
                        entry, env, token = _read_array(
                            frames, header_len, here, parsed)
                    else:
                        msg = _read_pickled(frames, header_len, nbuf, here)
                except (EOFError, OSError, struct.error):
                    return
                if nbuf != _ARRAY:
                    if msg[0] != "env":
                        self._dispatch(msg)
                        continue
                    route, token = msg[1], -1 if msg[7] is None else msg[7]
                    entry = parsed.setdefault(route, [None, None, route, None])
                    # no local may keep a payload alive past its frame
                    env, msg = Envelope(*msg[2:7]), None
                if token >= 0:
                    env.sync_gate = _AckGate((self, peer, token, env))
                mailbox = entry[3]
                if mailbox is None:
                    state = self._machine.comm_or_stash(
                        pickle.loads(entry[2]), env)
                    if state is None:  # held until the communicator exists
                        continue
                    mailbox = entry[3] = (
                        state.mailboxes[state.local_of_world[self.rank]])
                mailbox.deposit(env, True)  # fresh: nobody else holds it

    def _dispatch(self, msg: tuple) -> None:
        kind = msg[0]
        if kind == "ack":
            _, token, match_clock = msg
            with self._sync_lock:
                env = self._sync.pop(token, None)
            if env is not None:
                env.match_clock = match_clock
                env.sync_gate.open()
        elif kind == "abort":
            self._machine.mark_failed(msg[1])
        else:
            # a communicator not created locally yet (e.g. a peer raced
            # ahead through a split): the message is held until it is
            state = self._machine.comm_or_stash(msg[1], msg)
            if state is not None:
                barrier = state.barrier
                (barrier.record if kind == "bar" else barrier.complete)(
                    msg[2], msg[3])

    def stash(self, comm_id: Hashable, item: Any) -> None:
        """Hold ``item`` for :meth:`drain` (called under the registry lock)."""
        self._stash.setdefault(comm_id, []).append(item)

    def drain(self, state: CommState) -> None:
        """Deliver what was stashed for a just-created communicator.

        Called by ``get_or_create_comm`` while holding the registry lock, so
        stashed messages land before anything the pump routes afterwards.
        """
        for item in self._stash.pop(state.comm_id, ()):
            if type(item) is Envelope:
                state.mailboxes[state.local_of_world[self.rank]].deposit(
                    item, True)
            else:  # a barrier arrival or completion
                barrier = state.barrier
                (barrier.record if item[0] == "bar" else barrier.complete)(
                    item[2], item[3])


# ---------------------------------------------------------------------------
# child process entry point (module-level: importable under spawn)
# ---------------------------------------------------------------------------


def _child_main(rank: int, num_ranks: int, fn: Callable[..., Any],
                args: tuple, cfg: dict, pipes: dict[int, tuple[Any, Any]],
                rings: dict[int, tuple[tuple, tuple]], parent_conn) -> None:
    from repro.mpi.context import RawComm

    # the schedule fuzzer keys its streams by thread name
    threading.current_thread().name = f"rank-{rank}"
    tracer = TraceRecorder(num_ranks) if cfg["trace"] else None
    seed = cfg["fuzz_seed"]
    transport = _Transport(rank, pipes, rings)
    machine = Machine(
        num_ranks, cost_model=cfg["cost_model"], deadline=cfg["deadline"],
        tracer=tracer, engine=cfg["engine"],
        fuzzer=ScheduleFuzzer(seed) if seed is not None else None,
        transport=transport,
    )
    parent_conn.send(("up", rank, os.getpid()))
    parent_conn.recv()  # ("start",) — every rank's endpoints are live
    transport.start(machine)

    def report(value: Any, exc: Optional[BaseException],
               stacks: str = "") -> RankReport:
        # called inside the ``except`` block: the exception object need not
        # pickle, so the parent gets its formatted traceback instead (a
        # deadlock's stack block holds the same)
        detail = stacks or ("" if exc is None else (
            f"\n--- traceback from rank {rank} (process backend) ---\n"
            f"{traceback.format_exc()}"))
        rep = RankReport.of(machine, rank, value, exc, detail)
        rep.cause = None
        rep.events = tracer._events[rank] if tracer is not None else None
        return rep

    try:
        rep = report(fn(RawComm(machine, machine.world, rank), *args), None)
    except BaseException as exc:  # noqa: BLE001 - reported to the parent
        stacks = attach_stacks(exc, [threading.current_thread()])
        machine.abort(rank)  # peers blocked on us fail now
        rep = report(None, exc, stacks)
    try:
        parent_conn.send(("done", rank, rep))
    except Exception as exc:  # unpicklable return value: report that instead
        parent_conn.send(("done", rank, report(None, RawUsageError(
            f"rank {rank} returned a value that could not be pickled back "
            f"to the parent: {exc}"))))
    parent_conn.recv()  # ("exit",) — all ranks reported; safe to tear down


# ---------------------------------------------------------------------------
# the backend
# ---------------------------------------------------------------------------


class ProcessBackend(Backend):
    """Run each rank in its own OS process (GIL-free parallel execution)."""

    name = "process"

    def __init__(self, start_method: Optional[str] = None):
        self._start_method = start_method

    def _context(self):
        method = (self._start_method
                  or os.environ.get("REPRO_PROCESS_START", "").strip())
        if not method:
            method = ("fork" if "fork" in multiprocessing.get_all_start_methods()
                      else "spawn")
        return multiprocessing.get_context(method)

    def run(self, fn: Callable[..., Any], num_ranks: int, *,
            args: Sequence[Any] = (),
            cost_model: Optional[CostModel] = None,
            deadline: float = 120.0,
            trace: bool | TraceRecorder = False,
            engine: Optional[CollectiveEngine] = None,
            sanitize: Optional[bool] = None,
            fuzz_seed: Optional[int] = None,
            faults: Any = None) -> RunResult:
        if num_ranks < 1:
            raise RawUsageError(f"num_ranks must be >= 1, got {num_ranks}")
        # Explicit requests for shared-address-space features fail loudly up
        # front.  sanitize=None means "env default", which this backend
        # ignores (see the module docstring); only a literal True is a hard
        # request.
        here = f"on the {self.name!r} backend"
        if sanitize:
            raise UnsupportedOnBackend(unsupported(
                "sanitize", "MPIsan resource auditing (sanitize=True)", here))
        if faults is not None:
            raise UnsupportedOnBackend(unsupported(
                "faults", "fault-injection campaigns (faults=...)", here))

        tracer = resolve_tracer(trace, num_ranks)
        ctx = self._context()

        # a simplex pipe and a ring per ordered rank pair + a control pipe
        # per rank.  A ring's memory is an unlinked /dev/shm file, inherited
        # under fork and passed by descriptor under spawn; only the pair's
        # two ranks touch its pages, never the parent.
        ends = {(src, dst): ctx.Pipe(duplex=False)
                for src in range(num_ranks) for dst in range(num_ranks)
                if src != dst}
        rings = {pair: (heap.Arena(2 * _HALF), ctx.Semaphore(2),
                        ctx.Semaphore(0)) for pair in ends}
        pipes: dict[int, dict[int, tuple[Any, Any]]] = {
            r: {w: (ends[w, r][0], ends[r, w][1])
                for w in range(num_ranks) if w != r}
            for r in range(num_ranks)
        }
        cfg = {"cost_model": cost_model, "deadline": deadline,
               "trace": tracer is not None, "engine": engine,
               "fuzz_seed": fuzz_seed}
        ctl: dict[int, Any] = {}
        child_ends = []
        procs: dict[int, Any] = {}
        for r in range(num_ranks):
            parent_end, child_end = ctx.Pipe(True)
            ctl[r] = parent_end
            child_ends.append(child_end)
            procs[r] = ctx.Process(
                target=_child_main,
                args=(r, num_ranks, fn, tuple(args), cfg, pipes[r],
                      {w: (rings[w, r], rings[r, w]) for w in pipes[r]},
                      child_end),
                name=f"repro-rank-{r}", daemon=True,
            )
        expiry = time.monotonic() + deadline + RUN_GRACE
        try:
            for p in procs.values():
                p.start()
        except BaseException:
            self._terminate(procs)
            raise
        # drop the parent's copies so only the owning children hold them
        for reader, writer in ends.values():
            reader.close()
            writer.close()
        for child_end in child_ends:
            child_end.close()

        try:
            self._gather(ctl, procs, expiry, "up")
            for conn in ctl.values():
                conn.send(("start",))
            reports = self._gather(ctl, procs, expiry, "done")
            for conn in ctl.values():
                conn.send(("exit",))
        except BaseException:
            self._terminate(procs)
            raise
        finally:
            for p in procs.values():
                p.join(timeout=10.0)
            self._terminate(procs)
            for conn in ctl.values():
                conn.close()
            rings.clear()  # under spawn, unlinks the semaphores' names

        return self.finish([reports[r][0] for r in range(num_ranks)], tracer)

    # -- parent-side collection --------------------------------------------

    def _gather(self, ctl: dict[int, Any], procs: dict[int, Any],
                expiry: float, kind: str) -> dict[int, Any]:
        """Collect one ``kind`` message per rank, watching for crashes, until
        the ``time.monotonic()`` deadline ``expiry``."""
        pending = set(ctl)
        out: dict[int, Any] = {}
        sentinel_to_rank = {procs[r].sentinel: r for r in procs}
        while pending:
            left = expiry - time.monotonic()
            if left <= 0:
                raise RawDeadlockError(
                    f"process backend: ranks {sorted(pending)} did not "
                    f"report '{kind}' within the deadline + {RUN_GRACE:g}s "
                    f"of launch; terminating"
                )
            conns = [ctl[r] for r in pending]
            sentinels = [procs[r].sentinel for r in pending]
            ready = mp_connection.wait(conns + sentinels, timeout=left)
            # drain data first: a child may have reported and *then* died
            for obj in ready:
                if obj in sentinels:
                    continue
                try:
                    msg = obj.recv()
                except (EOFError, OSError):
                    continue  # the sentinel path below reports the death
                if msg[0] == kind:
                    out[msg[1]] = msg[2:]
                    pending.discard(msg[1])
            for obj in ready:
                rank = sentinel_to_rank.get(obj)
                if rank is not None and rank in pending:
                    procs[rank].join(timeout=5.0)  # reap so exitcode is set
                    code = procs[rank].exitcode
                    raise RuntimeError(
                        f"rank {rank} process died (exit code {code}) "
                        f"before reporting a result (process backend)"
                    )
        return out

    @staticmethod
    def _terminate(procs: dict[int, Any]) -> None:
        for p in procs.values():
            if p.is_alive():
                p.terminate()
