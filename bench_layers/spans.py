"""Spans around the calls into each layer, recorded from outside ``src/``.

A traced run swaps the two objects a program talks to for delegating
stand-ins defined here: :class:`TracedRawComm` wraps every public
``RawComm`` operation in an ``mpi.context.<op>`` span, and
:class:`TracedCommunicator` wraps every wrapped operation in a
``core.communicator.<op>`` span.  A span is ``(id, name, start, end,
parent, op, rank, own)``; spans of one top-level operation share its ``op``
id.  They stay in memory until the run ends.  A span's *self time* ``own`` is
its duration minus the part its child spans cover — for the bindings that is
the wrapped call minus the raw calls it enclosed.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter
from typing import Any, Iterable, NamedTuple, Optional

from repro.core import SPECS, Communicator


class Span(NamedTuple):
    id: int  # unique within one recorder (one rank's launch)
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int
    rank: int
    own: float  # seconds: duration minus child spans


class SpanRecorder:
    """In-memory span store; one per traced run (per process)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def begin(self, name: str, rank: int) -> list:
        """Open a span under the calling thread's innermost open span."""
        stack = self._local.__dict__.setdefault("stack", [])
        sid = next(self._ids)
        parent, op = (stack[-1][0], stack[-1][4]) if stack else (None, sid)
        token = [sid, name, 0.0, parent, op, rank, 0.0]  # last: child seconds
        stack.append(token)
        token[2] = perf_counter()
        return token

    def end(self, token: list) -> None:
        end = perf_counter()
        stack = self._local.stack
        stack.pop()
        sid, name, start, parent, op, rank, children = token
        if stack:
            stack[-1][6] += end - start
        self.spans.append(Span(sid, name, start, end, parent, op, rank,
                               end - start - children))

    def since(self, start: float) -> list[Span]:
        """Spans begun at or after ``start`` — a run's timed batches, without
        the warm-up batch before them."""
        return [s for s in self.spans if s.start >= start]


#: public communication operations of ``RawComm`` (the PMPI-counted surface)
RAW_OPS = (
    "send", "ssend", "isend", "issend", "recv", "irecv", "sendrecv", "probe",
    "iprobe", "barrier", "ibarrier", "bcast", "gather", "gatherv", "scatter",
    "scatterv", "allgather", "allgatherv", "alltoall", "alltoallv",
    "alltoallw", "reduce", "allreduce", "scan", "exscan", "ibcast",
    "iallreduce", "iallgather", "neighbor_alltoall", "neighbor_alltoallv",
)


def spanned(recorder: SpanRecorder, name: str, rank: int, fn):
    def call(*args: Any, **kwargs: Any) -> Any:
        token = recorder.begin(name, rank)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.end(token)
    return call


class TracedRawComm:
    """A ``RawComm`` stand-in: same object underneath, spans on the way in."""

    def __init__(self, inner, recorder: SpanRecorder):
        self.inner = inner
        self.recorder = recorder
        for name in RAW_OPS:
            setattr(self, name, spanned(recorder, f"mpi.context.{name}",
                                         inner.rank, getattr(inner, name)))

    def __getattr__(self, name: str) -> Any:  # everything not an operation
        return getattr(self.inner, name)


class TracedCommunicator(Communicator):
    """The bindings over a :class:`TracedRawComm`, one span per wrapped call."""

    def __init__(self, raw: TracedRawComm, plan_cache=None):
        super().__init__(raw, plan_cache)
        for name in SPECS:
            method = getattr(super(), name)
            setattr(self, name, spanned(raw.recorder,
                                         f"core.communicator.{name}",
                                         raw.rank, method))


def layer_of(name: str) -> str:
    """``core.communicator.allgatherv`` → ``core.communicator``."""
    return name.rsplit(".", 1)[0]


def self_seconds_by_layer(spans: Iterable[Span]) -> dict[str, float]:
    """Summed self seconds of ``spans``, grouped by layer."""
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        totals[layer_of(s.name)] += s.own
    return dict(totals)


def write_chrome_trace(spans: Iterable[Span], path, workload: str) -> None:
    """Write spans as Chrome trace-event JSON (``chrome://tracing``, Perfetto).

    One complete ("X") event per span; ``tid`` is the rank, ``args`` carry
    the span's id, its parent span and the id of the operation it belongs to.
    """
    spans = sorted(spans, key=lambda s: s.start)
    origin = spans[0].start if spans else 0.0
    events = [{
        "name": s.name, "cat": layer_of(s.name), "ph": "X",
        "ts": (s.start - origin) * 1e6, "dur": (s.end - s.start) * 1e6,
        "pid": workload, "tid": s.rank,
        "args": {"id": s.id, "parent": s.parent, "op": s.op,
                 "self_us": s.own * 1e6},
    } for s in spans]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ns"}, fh)
