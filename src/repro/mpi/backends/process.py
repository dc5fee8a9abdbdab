"""One-OS-process-per-rank execution backend.

Ranks are ``multiprocessing`` processes; every ordered rank pair owns one
simplex pipe, and envelopes cross it as self-framed messages.  This module
is a *transport* and a launcher, not a second runtime: each rank builds the
shared :class:`~repro.mpi.machine.Machine` over its :class:`_Transport`, so
its own endpoint of every communicator is a real
:class:`~repro.mpi.p2p.Mailbox` and every other rank's is a
:class:`_RemoteMailbox` that writes the envelope down the pipe to the peer,
whose pump thread for that pipe delivers it into the mailbox over there.
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

The sender gather-writes a frame with ``os.writev`` straight from the
payload's own memory, under a per-destination lock; the receiver reads each
buffer straight into the ``bytearray`` the array then keeps as its storage.
Those are the only two copies a buffer pays (into the pipe, out of it).
Encoding finishes before the first byte is written, so an unpicklable
payload raises without leaving half a frame behind.  No send-time
:func:`~repro.mpi.datatypes.snapshot` is taken — that is :meth:`Mailbox.deposit
<repro.mpi.p2p.Mailbox.deposit>`'s job, where sender and receiver share
memory; here the blocking write has copied the bytes out of the caller's
buffer before the send returns, and the pump hands what it read to
:meth:`~repro.mpi.p2p.Mailbox.deliver` without copying it again.  What
arrives is what a snapshot would be: same dtype, shape and memory order,
private, and writeable even if the sent array was not.  The array frame gives
that by construction; pickle would carry a buffer's read-only flag across, so
a *pickled* message holding a read-only buffer is deep-copied first — the
one case left that pays a third copy.  A ``datetime64`` / ``timedelta64``
array keeps its byte order on the array frame (``dtype.str`` carries the
unit too); one that takes the pickled frame — nested in a container, or not
C-contiguous — arrives as numpy's pickle hands it back, in native byte order.

The message tuples (what :func:`_read_frame` returns for either frame):

- ``("env", route, source, tag, payload, nbytes, arrival_time, token)`` — a
  message envelope.  ``route`` is ``pickle.dumps(comm_id)``, made once per
  :class:`_RemoteMailbox`; the receiver caches ``route -> CommState`` the
  first time the registry answers for it (a communicator is never dropped),
  so a steady-state message takes neither the registry lock nor an unpickle.
  ``token`` is the sender's counter for a synchronous send, else ``None``,
  echoed back as ``("ack", token, match_clock)`` when the receiver matches.
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
auditing, fault-injection campaigns, the run watchdog, RMA windows, and ULFM
failure coordination.  The seeded schedule fuzzer is the shared one: every
child builds ``ScheduleFuzzer(seed)``, whose streams are keyed by thread
name, and names its main thread ``rank-<r>`` as the thread backend does.
Note the ambient ``REPRO_SANITIZE`` environment default is deliberately
*ignored* here: it opts the thread backend into extra checking, and honoring
it would make ``REPRO_BACKEND=process`` unrunnable under a sanitizing CI
lane.  Only an explicit ``sanitize=True`` / ``faults=`` / ``timeout=``
argument is an error.

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
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Hashable, Optional, Sequence

import numpy as np

from repro.mpi.backends.base import Backend, RankReport, resolve_tracer
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

#: extra real-time budget the parent allows beyond the machine deadline
#: before declaring the run hung and terminating the children
_COLLECT_GRACE = 60.0


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


def _pickle(msg: tuple) -> tuple[bytes, list[memoryview]]:
    buffers: list[pickle.PickleBuffer] = []
    header = pickle.dumps(msg, protocol=5, buffer_callback=buffers.append)
    return header, [b.raw() for b in buffers]


def _encode(msg: tuple) -> list:
    """Serialise ``msg`` into the gather list of one frame: the array frame
    for an envelope holding a plain C-contiguous ``ndarray``, else the pickled
    one.  Everything that can fail on the payload's account happens here,
    before a byte is written.  The buffers in the list alias the sender's.
    """
    payload = msg[4] if msg[0] == "env" else None
    if (type(payload) is np.ndarray and payload.flags.c_contiguous
            and payload.dtype.kind in _PLAIN_KINDS):
        _, route, source, tag, _, nbytes, arrival_time, token = msg
        shape = payload.shape
        dtype = payload.dtype.str.encode()
        header = b"".join((
            _ENV.pack(source, tag, nbytes, arrival_time,
                      -1 if token is None else token, len(shape), len(dtype)),
            dtype, struct.pack(f"<{len(shape)}Q", *shape), route))
        frame = [_PREFIX.pack(len(header), _ARRAY) + header]
        if nbytes:
            if payload.dtype.kind in "mM":  # no buffer format: view the bytes
                payload = payload.view(np.int64)
            frame.append(pickle.PickleBuffer(payload).raw())
        return frame
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


def _read_exact(frames, size: int) -> bytes:
    data = frames.read(size)
    if len(data) < size:
        raise EOFError
    return data


def _read_into(frames, size: int) -> bytearray:
    buf = bytearray(size)
    if size and frames.readinto(buf) < size:
        raise EOFError
    return buf


def _read_frame(frames) -> tuple:
    """Read one frame back into its message tuple; each buffer lands in the
    ``bytearray`` the array keeps as its (writeable, private) storage."""
    header_len, nbuf = _PREFIX.unpack(_read_exact(frames, _PREFIX.size))
    if nbuf == _ARRAY:
        header = _read_exact(frames, header_len)
        source, tag, nbytes, arrival_time, token, ndim, dtype_len = (
            _ENV.unpack_from(header))
        shape_at = _ENV.size + dtype_len
        route_at = shape_at + 8 * ndim
        payload = np.ndarray(
            struct.unpack_from(f"<{ndim}Q", header, shape_at),
            header[_ENV.size:shape_at].decode(), _read_into(frames, nbytes))
        return ("env", header[route_at:], source, tag, payload, nbytes,
                arrival_time, None if token < 0 else token)
    sizes = struct.unpack(f"<{nbuf}Q", _read_exact(frames, 8 * nbuf))
    header = _read_exact(frames, header_len)
    return pickle.loads(header, buffers=[_read_into(frames, n) for n in sizes])


class _AckGate:
    """Receiver-side stand-in for a synchronous send's match gate.

    :meth:`~repro.mpi.p2p.PendingRecv.complete` stamps ``env.match_clock``
    and calls ``sync_gate.open()``; here ``open()`` ships the ack back to the
    sender, whose transport opens the *sender's* local envelope's (real)
    :class:`~repro.mpi.waiting.Gate`, unblocking its ``SyncSendRequest``.
    """

    __slots__ = ("_transport", "_peer_world", "_token", "_env")

    def __init__(self, transport: "_Transport", peer_world: int, token: int,
                 env: Envelope):
        self._transport = transport
        self._peer_world = peer_world
        self._token = token
        self._env = env

    def open(self) -> None:
        self._transport.send(
            self._peer_world, ("ack", self._token, self._env.match_clock))


class _RemoteMailbox:
    """Send-side proxy for a peer rank's mailbox: ``deposit`` writes the
    envelope down the pipe; the peer's pump thread delivers it into the real
    :class:`~repro.mpi.p2p.Mailbox` over there.  Only ``deposit`` exists —
    probing and receiving always target the rank's own (local) mailbox.
    """

    __slots__ = ("_transport", "_route", "_dest_world")

    def __init__(self, transport: "_Transport", comm_id: Hashable,
                 dest_world: int):
        self._transport = transport
        #: the id as every envelope carries it, and the receiver's cache key
        self._route = pickle.dumps(comm_id)
        self._dest_world = dest_world

    def deposit(self, env: Envelope) -> None:
        transport = self._transport
        token = transport.new_token() if env.sync_gate is not None else None
        try:
            frame = _encode((
                "env", self._route, env.source, env.tag, env.payload,
                env.nbytes, env.arrival_time, token,
            ))
        except (pickle.PicklingError, TypeError, AttributeError,
                ValueError) as exc:
            raise RawUsageError(
                f"payload of type {type(env.payload).__name__} could not be "
                f"pickled for the process-backend transport: {exc}"
            ) from exc
        if token is not None:
            transport.register_sync(token, env)
        transport.write(self._dest_world, frame)


class _Transport:
    """One rank's pipe ends plus the pump threads that drain them: what the
    rank's :class:`~repro.mpi.machine.Machine` reaches the other ranks by
    (``rank``, ``outbox``, ``send``, ``stash``, ``drain``, ``abort``).

    ``pipes`` maps each peer to ``(from_peer, to_peer)``, the read end of
    one simplex pipe and the write end of the other.  Frames to one peer are
    written under a per-destination lock (the rank's main thread and its
    pump threads — acks, barrier broadcasts — both send), so they never
    interleave; a control frame (:meth:`send`) never waits for that lock.
    Messages for communicators this rank has not locally created yet are
    stashed (``Machine.comm_or_stash``) and drained (``get_or_create_comm``)
    under the registry lock, in per-pair FIFO order.
    """

    def __init__(self, rank: int, pipes: dict[int, tuple[Any, Any]]):
        #: the one world rank that lives on this side of the pipes
        self.rank = rank
        self._pipes = pipes
        self._send_locks = {w: threading.Lock() for w in pipes}
        #: per destination, encoded control frames not written yet
        self._control: dict[int, deque] = {w: deque() for w in pipes}
        self._machine: Optional[Machine] = None
        self._stash: dict[Hashable, list[tuple]] = {}
        #: an envelope's ``route`` -> its communicator, once the registry knew
        self._routes: dict[bytes, CommState] = {}
        self._sync: dict[int, Envelope] = {}
        self._sync_lock = threading.Lock()
        self._sync_counter = itertools.count()

    # -- sending -----------------------------------------------------------

    def outbox(self, comm_id: Hashable, world: int) -> _RemoteMailbox:
        return _RemoteMailbox(self, comm_id, world)

    def write(self, world: int, frame: list) -> None:
        """Write an envelope's frame, blocking while the pipe is full."""
        with self._send_locks[world]:
            _write_frame(self._pipes[world][1].fileno(), frame)
        if self._control[world]:  # queued while the pipe was ours
            self._flush(world)

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

    def new_token(self) -> int:
        return next(self._sync_counter)

    def register_sync(self, token: int, env: Envelope) -> None:
        with self._sync_lock:
            self._sync[token] = env

    # -- receiving ---------------------------------------------------------

    def start(self, machine: Machine) -> None:
        """One blocking reader per peer pipe: per-pair FIFO by construction."""
        self._machine = machine
        for world, (from_peer, _) in self._pipes.items():
            threading.Thread(
                target=self._pump, args=(from_peer,),
                name=f"pump-{self.rank}<{world}", daemon=True,
            ).start()

    def _pump(self, from_peer) -> None:
        with open(from_peer.fileno(), "rb", closefd=False) as frames:
            while True:
                try:
                    msg = _read_frame(frames)
                except (EOFError, OSError):
                    return
                self._dispatch(msg)

    def _dispatch(self, msg: tuple) -> None:
        kind = msg[0]
        if kind == "env":
            state = self._routes.get(msg[1])
            if state is None:
                state = self._machine.comm_or_stash(pickle.loads(msg[1]), msg)
                if state is None:
                    return
                self._routes[msg[1]] = state
            self._deliver(state, msg)
        elif kind == "ack":
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
                self._deliver(state, msg)

    def stash(self, comm_id: Hashable, msg: tuple) -> None:
        """Hold ``msg`` for :meth:`drain` (called under the registry lock)."""
        self._stash.setdefault(comm_id, []).append(msg)

    def drain(self, state: CommState) -> None:
        """Deliver stashed messages for a just-created communicator.

        Called by ``get_or_create_comm`` while holding the registry lock, so
        stashed messages land before anything the pump routes afterwards.
        """
        for msg in self._stash.pop(state.comm_id, ()):
            self._deliver(state, msg)

    def _deliver(self, state: CommState, msg: tuple) -> None:
        kind = msg[0]
        if kind == "env":
            _, _, source, tag, payload, nbytes, arrival_time, token = msg
            env = Envelope(source, tag, payload, nbytes, arrival_time)
            if token is not None:
                env.sync_gate = _AckGate(
                    self, state.members[source], token, env)
            # freshly read off the pipe, referenced by nobody else: no snapshot
            state.mailboxes[state.local_of_world[self.rank]].deliver(env)
        elif kind == "bar":
            state.barrier.record(msg[2], msg[3])
        elif kind == "bardone":
            state.barrier.complete(msg[2], msg[3])


# ---------------------------------------------------------------------------
# child process entry point (module-level: importable under spawn)
# ---------------------------------------------------------------------------


def _child_main(rank: int, num_ranks: int, fn: Callable[..., Any],
                args: tuple, cfg: dict, pipes: dict[int, tuple[Any, Any]],
                parent_conn) -> None:
    from repro.mpi.context import RawComm

    # the schedule fuzzer keys its streams by thread name
    threading.current_thread().name = f"rank-{rank}"
    tracer = TraceRecorder(num_ranks) if cfg["trace"] else None
    seed = cfg["fuzz_seed"]
    transport = _Transport(rank, pipes)
    machine = Machine(
        num_ranks, cost_model=cfg["cost_model"], deadline=cfg["deadline"],
        tracer=tracer, engine=cfg["engine"],
        fuzzer=ScheduleFuzzer(seed) if seed is not None else None,
        transport=transport,
    )
    parent_conn.send(("up", rank, os.getpid()))
    parent_conn.recv()  # ("start",) — every rank's endpoints are live
    transport.start(machine)

    def report(value: Any, exc: Optional[BaseException]) -> RankReport:
        # called inside the ``except`` block: the exception object need not
        # pickle, so the parent gets its formatted traceback instead
        detail = "" if exc is None else (
            f"\n--- traceback from rank {rank} (process backend) ---\n"
            f"{traceback.format_exc()}")
        rep = RankReport.of(machine, rank, value, exc, detail)
        rep.cause = None
        rep.events = tracer._events[rank] if tracer is not None else None
        return rep

    try:
        rep = report(fn(RawComm(machine, machine.world, rank), *args), None)
    except BaseException as exc:  # noqa: BLE001 - reported to the parent
        machine.abort(rank)  # peers blocked on us fail now
        rep = report(None, exc)
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
            timeout: Optional[float] = None,
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
        if timeout is not None:
            # the watchdog's value is the per-rank stack dumps, and
            # sys._current_frames() cannot see another OS process's threads
            raise UnsupportedOnBackend(unsupported(
                "timeout", "the run watchdog with per-rank stack dumps "
                "(timeout=...)", here))
        if sanitize:
            raise UnsupportedOnBackend(unsupported(
                "sanitize", "MPIsan resource auditing (sanitize=True)", here))
        if faults is not None:
            raise UnsupportedOnBackend(unsupported(
                "faults", "fault-injection campaigns (faults=...)", here))

        tracer = resolve_tracer(trace, num_ranks)
        ctx = self._context()

        # a simplex pipe per ordered rank pair + a control pipe per rank
        ends = {(src, dst): ctx.Pipe(duplex=False)
                for src in range(num_ranks) for dst in range(num_ranks)
                if src != dst}
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
                      child_end),
                name=f"repro-rank-{r}", daemon=True,
            )
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

        expiry = time.monotonic() + deadline + _COLLECT_GRACE
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
                    f"report '{kind}' within the deadline; terminating"
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
