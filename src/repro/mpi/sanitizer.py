"""MPIsan: finalize-time resource auditing and schedule fuzzing.

The paper's safety claim for non-blocking communication (§III-E) is that the
bindings' ownership-tracking results make it *hard* to leak requests or touch
in-flight buffers — but nothing in the runtime verified that every rank
actually completes its requests, drains its mailboxes, and releases its
buffer poisons.  This module closes that gap with two tools:

**Resource auditor.**  When a run is sanitized (``run_mpi(...,
sanitize=True)`` or ``REPRO_SANITIZE=1``), the machine carries a
:class:`ResourceAuditor` that tracks every raw request, posted receive,
unexpected-queue envelope, buffer poison and synchronous-send envelope, each
with a creation backtrace.  At run teardown the
auditor sweeps the machine and produces a :class:`LeakReport`; a clean run
with leftover resources raises :class:`ResourceLeakError` (the report rides
on the exception), and when tracing is enabled each leak also becomes a
``leak:<kind>`` :class:`~repro.mpi.tracing.TraceEvent` so it shows up in the
Chrome-trace export next to the byte accounting.

**Schedule fuzzer.**  :class:`ScheduleFuzzer` is a seeded perturbation layer
over the real-time schedule: mailbox deliveries are delayed by small
randomized-but-deterministic amounts.  The random streams are keyed by *thread
name* (rank threads are named ``rank-<r>``), so the same seed draws the same
per-rank delay sequence on every run — virtual time and results are
unaffected; only the interleaving of the underlying real-time schedule
changes.  This is what shakes out matching races such as the
``Mailbox.cancel`` message-loss bug.
:func:`minimize_failing_seeds` is the companion workflow helper: scan a seed
range, return the failing seeds (smallest first) for a deterministic repro.

Neither tool costs anything when disabled: an unsanitized machine's
``auditor`` and an unfuzzed one's ``fuzzer`` are ``None``, and each hook
site tests for that.
"""

from __future__ import annotations

import random
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, Optional, Sequence

from repro.mpi.errors import RawMpiError

#: leak kinds the auditor can report
LEAK_KINDS = (
    "request",          # a raw request (irecv/issend/ibarrier/i-collective) never completed
    "ssend_unmatched",  # a synchronous send whose message no receive ever matched
    "posted_recv",      # a posted receive left in a mailbox's matching queue
    "unexpected",       # an envelope left in a mailbox's unexpected queue
    "poison",           # a send-buffer poison (read-only flag) never released
)


@dataclass(frozen=True)
class LeakRecord:
    """One leaked communication resource, attributed to its creation site."""

    #: one of :data:`LEAK_KINDS`
    kind: str
    #: the raw operation that created the resource (e.g. ``"irecv"``)
    op: str
    #: world rank / communicator-local rank that owns the resource
    world_rank: int
    rank: int
    #: communicator the resource belongs to
    comm: Hashable
    #: communicator-local peer rank, when one is known (-1 = wildcard)
    peer: Optional[int] = None
    tag: Optional[int] = None
    nbytes: int = 0
    #: creation backtrace, innermost frame first (``file:line in function``)
    origin: tuple[str, ...] = ()
    detail: str = ""

    def describe(self) -> str:
        parts = [f"{self.kind}: {self.op} on comm {self.comm!r} "
                 f"rank {self.rank} (world {self.world_rank})"]
        if self.peer is not None:
            parts.append(f"peer {self.peer}")
        if self.tag is not None:
            parts.append(f"tag {self.tag}")
        if self.nbytes:
            parts.append(f"{self.nbytes} bytes")
        if self.detail:
            parts.append(self.detail)
        line = ", ".join(parts)
        if self.origin:
            line += "\n      created at " + "\n                 ".join(self.origin[:4])
        return line


class LeakReport:
    """The auditor's verdict on one run: every resource left behind."""

    def __init__(self, records: Sequence[LeakRecord] = ()):
        self.records: list[LeakRecord] = list(records)

    def __bool__(self) -> bool:
        return bool(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def by_kind(self) -> dict[str, list[LeakRecord]]:
        out: dict[str, list[LeakRecord]] = {}
        for rec in self.records:
            out.setdefault(rec.kind, []).append(rec)
        return out

    def summary(self) -> str:
        """Multi-line human-readable report (the sanitizer's error message)."""
        if not self.records:
            return "MPIsan: no leaked communication resources"
        counts = ", ".join(f"{len(v)} {k}" for k, v in sorted(self.by_kind().items()))
        lines = [f"MPIsan: {len(self.records)} leaked communication "
                 f"resource(s) at finalize ({counts})"]
        for i, rec in enumerate(self.records, 1):
            lines.append(f"  [{i}] {rec.describe()}")
        return "\n".join(lines)


class ResourceLeakError(RawMpiError):
    """A sanitized run finished with leaked communication resources.

    The :class:`LeakReport` is available as :attr:`report`.
    """

    def __init__(self, report: LeakReport):
        self.report = report
        super().__init__(report.summary())


def _capture_origin(skip: int = 2, limit: int = 8) -> tuple[str, ...]:
    """Cheap creation backtrace: ``file:line in function`` frame summaries."""
    try:
        frame = sys._getframe(skip)
    except ValueError:  # pragma: no cover - shallow stack
        return ()
    parts: list[str] = []
    while frame is not None and len(parts) < limit:
        code = frame.f_code
        parts.append(f"{code.co_filename}:{frame.f_lineno} in {code.co_name}")
        frame = frame.f_back
    return tuple(parts)


class ResourceAuditor:
    """Tracks the lifecycle of every leak-prone communication resource.

    Registration happens at creation sites (``RawComm.irecv``, the
    non-blocking collectives, the bindings' poison sites); the
    matching *release* is observed passively through each resource's own
    state (``audit_state()`` on requests, ``released`` on poisons, the
    mailbox queues themselves), so the hot completion paths pay nothing.
    :meth:`collect` runs once at machine teardown and sweeps both the
    tracked registries and every mailbox of every communicator.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: tracked raw requests: (request, attribution dict)
        self._requests: list[tuple[Any, dict]] = []
        #: tracked buffer poisons: (Poison, attribution dict)
        self._poisons: list[tuple[Any, dict]] = []

    # -- registration hooks (called from the runtime's creation sites) -----

    def origin(self) -> tuple[str, ...]:
        """Creation backtrace for the caller's caller (stamped on resources)."""
        return _capture_origin(skip=2)

    def _attribution(self, comm, *, op: str, peer: Optional[int],
                     tag: Optional[int], nbytes: int) -> dict:
        return {
            "op": op,
            "world_rank": comm.world_rank,
            "rank": comm.rank,
            "comm": comm.comm_id,
            "peer": peer,
            "tag": tag,
            "nbytes": nbytes,
            "origin": _capture_origin(skip=3),
        }

    def track_request(self, req, comm, *, op: str, peer: Optional[int] = None,
                      tag: Optional[int] = None, nbytes: int = 0) -> None:
        """Register a raw request that must complete (or cancel) before finalize."""
        info = self._attribution(comm, op=op, peer=peer, tag=tag, nbytes=nbytes)
        with self._lock:
            self._requests.append((req, info))

    def track_poison(self, poison, comm, *, op: str) -> None:
        """Register an in-flight buffer poison that must be released."""
        info = self._attribution(comm, op=op, peer=None, tag=None,
                                 nbytes=getattr(poison, "nbytes", 0))
        with self._lock:
            self._poisons.append((poison, info))

    # -- finalize-time sweep ------------------------------------------------

    def collect(self, machine) -> LeakReport:
        """Sweep the machine for leaked resources at run teardown."""
        with self._lock:
            requests = list(self._requests)
            poisons = list(self._poisons)
        records: list[LeakRecord] = []

        # Posted receives owned by tracked requests are reported under the
        # request (with its op name), not a second time by the mailbox sweep.
        claimed_prs: set[int] = set()
        for req, info in requests:
            for pr in _pending_recvs_of(req):
                claimed_prs.add(id(pr))
            state = _request_state(req)
            if state == "unmatched":
                records.append(LeakRecord(
                    kind="ssend_unmatched",
                    detail="the synchronous send was never matched by a receive",
                    **info))
            elif state == "pending":
                records.append(LeakRecord(
                    kind="request",
                    detail="request never completed (wait/test) nor cancelled",
                    **info))

        for poison, info in poisons:
            if not getattr(poison, "released", True):
                records.append(LeakRecord(
                    kind="poison",
                    detail="send buffer still read-only (poison never released)",
                    **info))

        records.extend(self._sweep_mailboxes(machine, claimed_prs))
        return LeakReport(records)

    def _sweep_mailboxes(self, machine, claimed_prs: set[int]) -> list[LeakRecord]:
        records: list[LeakRecord] = []
        with machine._registry_lock:
            comm_states = list(machine._comms.values())
        for state in comm_states:
            for local, mb in state.mailboxes.items():
                posted, unexpected = mb.audit_snapshot()
                world = state.members[local]
                for pr in posted:
                    if id(pr) in claimed_prs or pr.cancelled:
                        continue
                    records.append(LeakRecord(
                        kind="posted_recv", op="recv", world_rank=world,
                        rank=local, comm=state.comm_id, peer=pr.source,
                        tag=pr.tag, origin=getattr(pr, "origin", ()),
                        detail="posted receive never matched, waited, or cancelled"))
                for env in unexpected:
                    records.append(LeakRecord(
                        kind="unexpected", op="message", world_rank=world,
                        rank=local, comm=state.comm_id, peer=env.source,
                        tag=env.tag, nbytes=env.nbytes,
                        origin=getattr(env, "origin", ()),
                        detail="delivered envelope never received (undrained "
                               "unexpected queue)"))
        return records


def _request_state(req) -> str:
    """A request's lifecycle state, observed without side effects."""
    audit = getattr(req, "audit_state", None)
    if audit is None:  # unknown request type: assume well-behaved
        return "completed"
    return audit()


def _pending_recvs_of(req) -> tuple:
    hook = getattr(req, "audit_pending_recvs", None)
    return hook() if hook is not None else ()


# -- schedule fuzzing --------------------------------------------------------


class ScheduleFuzzer:
    """Seeded, deterministic perturbation of the real-time schedule.

    Each thread draws from its own :class:`random.Random` stream seeded by
    ``(seed, thread name)``.  Rank threads have stable names (``rank-<r>``, on
    the process backend each child's main thread; its pumps are
    ``pump-<r><<peer>``), so a given seed replays the same per-rank delay
    sequence run after run — the determinism contract the seed-minimization
    workflow relies on.

    One perturbation point, :meth:`pause`: called by :meth:`Mailbox.deposit
    <repro.mpi.p2p.Mailbox.deposit>` (delivery delays) and at rank-thread
    start (spawn ordering), it sleeps a small random real-time amount with
    probability one half.

    Virtual clocks and results are unaffected: only *real-time* interleaving
    changes, which is exactly the nondeterminism a matching race depends on.
    """

    def __init__(self, seed: int, max_delay: float = 0.002):
        self.seed = int(seed)
        self.max_delay = max_delay
        self._streams: dict[str, random.Random] = {}
        self._lock = threading.Lock()

    def _rng(self) -> random.Random:
        name = threading.current_thread().name
        with self._lock:
            rng = self._streams.get(name)
            if rng is None:
                rng = self._streams[name] = random.Random(f"{self.seed}:{name}")
            return rng

    def pause(self, point: str = "") -> None:
        """Maybe sleep a small seed-determined amount at a delivery point."""
        rng = self._rng()
        if rng.random() < 0.5:
            time.sleep(rng.random() * self.max_delay)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ScheduleFuzzer(seed={self.seed})"


def minimize_failing_seeds(run: Callable[[int], Any], seeds: Iterable[int],
                           *, stop_after: Optional[int] = None,
                           ) -> list[int]:
    """Run ``run(seed)`` across ``seeds``; return the failing seeds, smallest first.

    ``run`` fails by raising (any exception is caught and counted as a
    failure for that seed).  ``stop_after`` bounds the scan: stop once that
    many failing seeds were found — with an ascending seed range the first
    failure is already the minimal one.  This is the seed-minimization
    workflow for fuzz-marked tests: scan a seed matrix once, then pin the
    smallest failing seed as a deterministic regression.
    """
    failing: list[int] = []
    for seed in seeds:
        try:
            run(seed)
        except Exception:
            failing.append(seed)
            if stop_after is not None and len(failing) >= stop_after:
                break
    return sorted(failing)


def env_sanitize_default() -> bool:
    """Whether ``REPRO_SANITIZE`` asks for sanitized runs (``1``/truthy)."""
    import os

    return os.environ.get("REPRO_SANITIZE", "").strip() not in ("", "0", "false")


def env_fuzz_seed_default() -> Optional[int]:
    """The ``REPRO_FUZZ_SEED`` environment seed, if one is set."""
    import os

    raw = os.environ.get("REPRO_FUZZ_SEED", "").strip()
    return int(raw) if raw else None
