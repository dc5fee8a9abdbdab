"""Structured communication tracing for the simulated machine.

The paper validates the zero-overhead claim through the MPI profiling
interface (§III-H): *only the expected MPI calls are issued*.  Counting call
kinds (:mod:`repro.mpi.profiling`) proves the "which calls" half; this module
adds the other half — *what* each call moved.  A :class:`TraceRecorder` owned
by the :class:`~repro.mpi.machine.Machine` records one :class:`TraceEvent`
per raw MPI operation: op kind, world/local rank, peer set, tag, payload
bytes (split into a sent and a received contribution), and virtual start/end
timestamps taken from the per-rank :class:`~repro.mpi.costmodel.Clock`.

Tracing is **off by default** and costs nothing when disabled: the machine
then holds the :data:`NULL_TRACER` singleton whose ``span()`` returns a
shared no-op handle, so the hot path pays one attribute check per call and
the virtual clocks and PMPI counters are bit-identical to an untraced run
(the existing counter tests verify this).

On top of the recorder:

- :meth:`TraceRecorder.to_chrome_trace` exports the run in the Chrome
  trace-event JSON format (load it in ``chrome://tracing`` / Perfetto);
- :meth:`TraceRecorder.per_op_totals` aggregates calls/bytes/seconds per op
  kind (the byte columns the figure benchmarks attach to their BENCH JSON);
- :func:`calls` builds :class:`CallSpec` values that extend
  :func:`repro.mpi.profiling.expect_calls` assertions from call counts to
  byte volumes and peer sets.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable, Optional, Sequence

from repro.mpi.collectives import COLLECTIVES
from repro.mpi.datatypes import payload_nbytes


@dataclass(frozen=True)
class TraceEvent:
    """One raw MPI operation as observed by the rank that issued it."""

    #: raw call kind, e.g. ``"allgatherv"`` (``"timer:<name>"`` for spans
    #: recorded by :class:`repro.core.measurements.Timer`)
    op: str
    #: issuing rank's world rank / rank within ``comm``
    world_rank: int
    rank: int
    #: communicator id the call was issued on
    comm: Hashable
    #: world ranks of the peers this call communicates with (empty when the
    #: peer set is unknown, e.g. a not-yet-matched wildcard receive)
    peers: tuple[int, ...]
    #: user/collective tag, when the op carries one
    tag: Optional[int]
    #: payload bytes this rank put on the wire (send-side contribution)
    sent: int
    #: payload bytes delivered into this rank's result buffers
    recvd: int
    #: virtual timestamps (seconds) from the issuing rank's clock
    t_start: float
    t_end: float
    #: name of the collective algorithm the engine selected (``None`` for
    #: point-to-point and management operations)
    algorithm: Optional[str] = None
    #: name of the IR rewrite pass that produced this op, when the run is an
    #: IR replay of an optimized epoch (``None``: op as the program wrote it)
    ir_pass: Optional[str] = None
    #: cluster-service job label the op was issued on behalf of, when the
    #: run is a service rank executing a job (``None``: not job work)
    job: Optional[str] = None

    @property
    def nbytes(self) -> int:
        """Total payload bytes attributed to the call (sent + received)."""
        return self.sent + self.recvd

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


def _sum_payload_bytes(obj: Any) -> int:
    """Byte size of a payload, summing element-wise over lists of payloads."""
    if obj is None:
        return 0
    if isinstance(obj, (list, tuple)):
        return sum(payload_nbytes(x) for x in obj)
    return payload_nbytes(obj)


#: payload-size bucket edges for the Chrome-trace export (bytes)
_SIZE_BUCKETS = ((0, "0"), (1024, "<=1KiB"), (64 * 1024, "<=64KiB"),
                 (1024 * 1024, "<=1MiB"))


def size_bucket(nbytes: int) -> str:
    """Coarse payload-size class used in Chrome-trace event args."""
    for limit, label in _SIZE_BUCKETS:
        if nbytes <= limit:
            return label
    return ">1MiB"


class _Span:
    """Mutable recording handle for one in-flight operation."""

    __slots__ = ("_recorder", "_comm", "op", "_peers", "tag", "sent", "recvd",
                 "algorithm", "ir_pass", "job", "_t_start")

    def __init__(self, recorder: "TraceRecorder", comm, op: str,
                 peers: Sequence[int], tag: Optional[int], sent: int,
                 algorithm: Optional[str] = None,
                 ir_pass: Optional[str] = None,
                 job: Optional[str] = None):
        self._recorder = recorder
        self._comm = comm
        self.op = op
        #: local peer ranks, or one of the lazy markers "all" (every member
        #: of the communicator) / "neighbors" (topology neighborhood)
        self._peers = peers if isinstance(peers, str) else tuple(peers)
        self.tag = tag
        self.sent = sent
        self.recvd = 0
        self.algorithm = algorithm
        self.ir_pass = ir_pass
        self.job = job
        self._t_start = 0.0

    def set(self, *, peers: Optional[Sequence[int]] = None,
            tag: Optional[int] = None,
            sent: Optional[int] = None, recvd: Optional[int] = None,
            sent_payload: Any = None, recvd_payload: Any = None,
            algorithm: Optional[str] = None) -> None:
        """Fill in details only known once the operation progressed.

        ``peers`` are communicator-local ranks (resolved to world ranks at
        event creation); ``*_payload`` variants size an arbitrary payload —
        pass these instead of pre-computed byte counts so a disabled tracer
        never pays for sizing.
        """
        if peers is not None:
            self._peers = peers if isinstance(peers, str) else tuple(peers)
        if tag is not None:
            self.tag = tag
        if sent is not None:
            self.sent = sent
        if recvd is not None:
            self.recvd = recvd
        if sent_payload is not None:
            self.sent = _sum_payload_bytes(sent_payload)
        if recvd_payload is not None:
            self.recvd = _sum_payload_bytes(recvd_payload)
        if algorithm is not None:
            self.algorithm = algorithm

    def __enter__(self) -> "_Span":
        self._t_start = self._comm.clock.now
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        comm = self._comm
        members = comm.state.members
        if self._peers == "all":
            world_peers = tuple(members)
        else:
            local = (comm._neighbor_peers() if self._peers == "neighbors"
                     else self._peers)
            world_peers = tuple(
                members[p] for p in local if 0 <= p < len(members)
            )
        self._recorder._append(TraceEvent(
            op=self.op,
            world_rank=comm.world_rank,
            rank=comm.rank,
            comm=comm.comm_id,
            peers=world_peers,
            tag=self.tag,
            sent=self.sent,
            recvd=self.recvd,
            t_start=self._t_start,
            t_end=comm.clock.now,
            algorithm=self.algorithm,
            ir_pass=self.ir_pass,
            job=self.job,
        ))
        return False


class _NullSpan:
    """Shared do-nothing span handed out by the disabled tracer."""

    __slots__ = ()

    def set(self, **kwargs) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTraceRecorder:
    """Disabled recorder: every operation is a no-op.

    This is the machine's default.  ``enabled`` is the fast-path flag
    :meth:`RawComm._span <repro.mpi.context.RawComm._span>` checks before
    sizing payloads, so an untraced run never serializes or copies anything
    on behalf of the tracer.
    """

    enabled = False

    def span(self, comm, op: str, *, peers: Sequence[int] = (),
             tag: Optional[int] = None, sent: int = 0,
             algorithm: Optional[str] = None,
             ir_pass: Optional[str] = None,
             job: Optional[str] = None) -> _NullSpan:
        return _NULL_SPAN

    def record(self, comm, op: str, *, t_start: float, t_end: float,
               peers: Sequence[int] = (), tag: Optional[int] = None,
               sent: int = 0, recvd: int = 0) -> None:
        pass

    def events_for(self, world_rank: int) -> tuple:
        return ()

    def all_events(self) -> list:
        return []

    def events_for_job(self, job: str) -> list:
        return []

    def per_op_totals(self) -> dict:
        return {}


#: Singleton disabled recorder shared by all untraced machines.
NULL_TRACER = NullTraceRecorder()


class TraceRecorder:
    """Per-rank event log of every raw MPI operation in a run.

    Each rank thread appends only to its own list, so recording needs no
    locking (the same discipline :class:`~repro.mpi.costmodel.Clock` uses).
    """

    enabled = True

    def __init__(self, num_ranks: int):
        self.num_ranks = num_ranks
        self._events: list[list[TraceEvent]] = [[] for _ in range(num_ranks)]

    # -- recording ---------------------------------------------------------

    def span(self, comm, op: str, *, peers: Sequence[int] = (),
             tag: Optional[int] = None, sent: int = 0,
             algorithm: Optional[str] = None,
             ir_pass: Optional[str] = None,
             job: Optional[str] = None) -> _Span:
        """Open a recording span; the event is appended when it exits."""
        return _Span(self, comm, op, peers, tag, sent, algorithm, ir_pass,
                     job)

    def record(self, comm, op: str, *, t_start: float, t_end: float,
               peers: Sequence[int] = (), tag: Optional[int] = None,
               sent: int = 0, recvd: int = 0) -> None:
        """Append a completed event directly (used by the measurement layer)."""
        members = comm.state.members
        self._append(TraceEvent(
            op=op, world_rank=comm.world_rank, rank=comm.rank,
            comm=comm.comm_id,
            peers=tuple(members[p] for p in peers if 0 <= p < len(members)),
            tag=tag, sent=sent, recvd=recvd,
            t_start=t_start, t_end=t_end,
        ))

    def _append(self, event: TraceEvent) -> None:
        self._events[event.world_rank].append(event)

    # -- queries -----------------------------------------------------------

    def events_for(self, world_rank: int) -> tuple[TraceEvent, ...]:
        """The events issued by one world rank, in issue order."""
        return tuple(self._events[world_rank])

    def all_events(self) -> list[TraceEvent]:
        """Every event of the run, ordered by (start time, rank)."""
        merged = [e for per_rank in self._events for e in per_rank]
        merged.sort(key=lambda e: (e.t_start, e.world_rank, e.t_end))
        return merged

    def events_for_job(self, job: str) -> list[TraceEvent]:
        """Every event issued on behalf of one cluster-service job.

        Per-job trace scoping: service ranks stamp the job label on ops they
        run inside the job communicator, so one shared recorder can be
        sliced back into per-job traces (ordered like :meth:`all_events`).
        """
        return [e for e in self.all_events() if e.job == job]

    def per_op_totals(self, *, by_algorithm: bool = False
                      ) -> dict[str, dict[str, float]]:
        """Aggregate ``{op: {calls, sent, recvd, bytes, seconds}}`` over ranks.

        With ``by_algorithm=True`` the keys become ``"op[algorithm]"`` for
        events that carry an algorithm name (collectives), splitting each
        collective's totals by the implementation the engine selected.
        """
        out: dict[str, dict[str, float]] = {}
        for per_rank in self._events:
            for e in per_rank:
                key = e.op
                if by_algorithm and e.algorithm is not None:
                    key = f"{e.op}[{e.algorithm}]"
                agg = out.setdefault(key, {
                    "calls": 0, "sent": 0, "recvd": 0, "bytes": 0,
                    "seconds": 0.0,
                })
                agg["calls"] += 1
                agg["sent"] += e.sent
                agg["recvd"] += e.recvd
                agg["bytes"] += e.nbytes
                agg["seconds"] += e.duration
        return out

    def algorithms_used(self) -> dict[str, tuple[str, ...]]:
        """``{op: sorted algorithm names}`` over all collective events."""
        seen: dict[str, set[str]] = {}
        for per_rank in self._events:
            for e in per_rank:
                if e.algorithm is not None:
                    seen.setdefault(e.op, set()).add(e.algorithm)
        return {op: tuple(sorted(names)) for op, names in sorted(seen.items())}

    def collective_samples(self) -> list[tuple[str, str, int, int, float]]:
        """Per-instance collective timings: ``(op, algorithm, p, nbytes, s)``.

        This is the autotuner's harvesting query (:mod:`repro.mpi.autotune`).
        Ranks of one communicator issue the same sequence of collectives
        (SPMD — reprolint's RPL10x rules exist to enforce exactly this), so
        the *k*-th ``(comm, op)`` event on each member rank belongs to the
        same collective instance.  Per instance:

        - ``p`` is the communicator size (``len(peers)`` — collective spans
          resolve ``peers="all"`` to every member's world rank);
        - ``nbytes`` is the engine's size hint reconstructed from the event:
          the max over ranks of ``sent`` (``recvd`` where the op declares a
          ``"recvcounts"`` hint — allgatherv's total gathered bytes);
        - seconds is the max event duration over ranks — the virtual time
          the slowest rank spent inside the call, matching how
          ``RunResult.max_time`` scores a run.
        """
        instances: dict[tuple[Hashable, str, int], list[TraceEvent]] = {}
        for per_rank in self._events:
            counters: dict[tuple[Hashable, str], int] = {}
            for e in per_rank:
                if e.algorithm is None:
                    continue
                key = (e.comm, e.op)
                idx = counters.get(key, 0)
                counters[key] = idx + 1
                instances.setdefault((e.comm, e.op, idx), []).append(e)
        rows = []
        for (_, op, _), events in instances.items():
            hint_field = ("recvd" if COLLECTIVES[op].hint == "recvcounts"
                          else "sent")
            rows.append((
                op,
                events[0].algorithm,
                max(len(e.peers) for e in events),
                max(getattr(e, hint_field) for e in events),
                max(e.duration for e in events),
            ))
        rows.sort()
        return rows

    def per_rank_bytes(self) -> list[dict[str, int]]:
        """Per-rank ``{"sent": ..., "recvd": ...}`` payload totals."""
        return [
            {
                "sent": sum(e.sent for e in per_rank),
                "recvd": sum(e.recvd for e in per_rank),
            }
            for per_rank in self._events
        ]

    # -- export ------------------------------------------------------------

    def to_chrome_trace(self) -> dict[str, Any]:
        """Export as a Chrome trace-event JSON object.

        One complete ("ph": "X") event per operation, with the virtual clock
        mapped to microseconds; ranks appear as threads of a single process,
        so ``chrome://tracing`` / Perfetto draws one swim-lane per rank.
        """
        trace_events: list[dict[str, Any]] = []
        for rank in range(self.num_ranks):
            trace_events.append({
                "name": "thread_name", "ph": "M", "pid": 0, "tid": rank,
                "args": {"name": f"rank {rank}"},
            })
        for e in self.all_events():
            args: dict[str, Any] = {
                "rank": e.rank,
                "comm": repr(e.comm),
                "peers": list(e.peers),
                "sent_bytes": e.sent,
                "recvd_bytes": e.recvd,
            }
            if e.tag is not None:
                args["tag"] = e.tag
            if e.algorithm is not None:
                args["algorithm"] = e.algorithm
                args["size_bucket"] = size_bucket(e.nbytes)
            if e.ir_pass is not None:
                args["ir_pass"] = e.ir_pass
            if e.job is not None:
                args["job"] = e.job
            if e.op.startswith("timer:"):
                cat = "timer"
            elif e.op.startswith("leak:"):
                cat = "sanitizer"
            elif e.op.startswith("fault:"):
                cat = "fault"
            else:
                cat = "mpi"
            trace_events.append({
                "name": e.op,
                "cat": cat,
                "ph": "X",
                "pid": 0,
                "tid": e.world_rank,
                "ts": e.t_start * 1e6,
                "dur": e.duration * 1e6,
                "args": args,
            })
        return {"traceEvents": trace_events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path) -> None:
        """Write :meth:`to_chrome_trace` JSON to ``path``."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_chrome_trace(), fh)


# -- volume-aware call assertions ------------------------------------------


@dataclass(frozen=True)
class CallSpec:
    """Expected profile of one raw call kind inside an ``expect_calls`` block.

    ``bytes``/``sent``/``recvd`` assert byte volumes summed over the block's
    events of that kind; ``peers`` asserts the union of their peer sets
    (world ranks).  Anything left ``None`` is not checked.
    """

    count: int
    bytes: Optional[int] = None
    sent: Optional[int] = None
    recvd: Optional[int] = None
    peers: Optional[frozenset[int]] = None
    #: assert every event of this kind ran the named collective algorithm
    algorithm: Optional[str] = None

    def check(self, op: str, events: Sequence[TraceEvent], *,
              check_count: bool = True) -> list[str]:
        """Return human-readable mismatch descriptions (empty if satisfied)."""
        problems = []
        if check_count and len(events) != self.count:
            problems.append(f"expected {self.count} × {op}, saw {len(events)}")
        for label, want, have in (
            ("bytes", self.bytes, sum(e.nbytes for e in events)),
            ("sent bytes", self.sent, sum(e.sent for e in events)),
            ("recvd bytes", self.recvd, sum(e.recvd for e in events)),
        ):
            if want is not None and have != want:
                problems.append(f"{op}: expected {want} {label}, saw {have}")
        if self.peers is not None:
            have_peers = frozenset(p for e in events for p in e.peers)
            if have_peers != self.peers:
                problems.append(
                    f"{op}: expected peers {sorted(self.peers)}, "
                    f"saw {sorted(have_peers)}"
                )
        if self.algorithm is not None:
            have_algos = sorted({str(e.algorithm) for e in events})
            if have_algos != [self.algorithm]:
                problems.append(
                    f"{op}: expected algorithm {self.algorithm!r}, "
                    f"saw {have_algos}"
                )
        return problems


def calls(count: int, *, bytes: Optional[int] = None,
          sent: Optional[int] = None, recvd: Optional[int] = None,
          peers: Optional[Iterable[int]] = None,
          algorithm: Optional[str] = None) -> CallSpec:
    """Build a :class:`CallSpec` for :func:`repro.mpi.profiling.expect_calls`.

    Example — the paper's allgatherv count-inference path, now pinned down to
    its exact volumes::

        with expect_calls(comm.raw,
                          allgather=1,
                          allgatherv=calls(1, recvd=total_bytes,
                                           peers=range(comm.size))):
            comm.allgatherv(send_buf(v))
    """
    return CallSpec(
        count=count, bytes=bytes, sent=sent, recvd=recvd,
        peers=frozenset(peers) if peers is not None else None,
        algorithm=algorithm,
    )
