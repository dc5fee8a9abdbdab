"""Fault-injection campaigns: scripted, counted, probabilistic, and slow-rank.

A :class:`FaultCampaign` rides on the :class:`~repro.mpi.machine.Machine`
(``run_mpi(..., faults=...)``).  Ranks may call
:meth:`FaultCampaign.checkpoint` at hand-placed named program points, where
:class:`KillAtCheckpoint` rules fire; every other rule is *hook-driven*,
consulted from three runtime layers —

- :meth:`RawComm._count <repro.mpi.context.RawComm._count>` — the entry of
  every public (counted) operation.  This is where :class:`KillOnOp` rules
  ("kill rank r on its Nth send / collective / RMA op"), :class:`KillRandom`
  rules (seeded per-rank Bernoulli draws), and :class:`Straggler` slow-downs
  fire;
- the internal point-to-point primitives the schedule driver executes
  collective steps with (``RawComm._deposit`` and its receive posts) — where
  :class:`KillMidCollective` rules fire *between the p2p rounds* of a
  registry algorithm schedule, after the victim already contributed partial
  rounds;
- :meth:`RawComm._coll_algo <repro.mpi.context.RawComm._coll_algo>` —
  tells the campaign which algorithm schedule the engine picked for the
  current collective, so mid-collective rules can target ``(op, algorithm)``
  pairs.

Kills always fire *at operation entry* or *between* internal p2p rounds,
never after an operation completed — a victim that reached a machine-level
rendezvous (shrink/agree) has therefore either arrived or is already marked
failed, which keeps the rendezvous' liveness argument intact.

Determinism: random draws come from per-rank :class:`random.Random` streams
keyed ``(seed, world rank)`` — the same discipline as
:class:`~repro.mpi.sanitizer.ScheduleFuzzer`, with which campaigns compose
(independent streams, both seed-pinned).  The campaign seed defaults to the
``REPRO_FAULT_SEED`` environment variable (:func:`env_fault_seed_default`),
so a red CI cell is reproducible from its seed alone.

Every injected fault is recorded (:attr:`FaultCampaign.injected`) and, on
traced runs, emitted as a zero-duration ``fault:<kind>``
:class:`~repro.mpi.tracing.TraceEvent` (Chrome-trace category ``"fault"``),
so a post-mortem trace shows exactly where the campaign struck.
"""

from __future__ import annotations

import os
import random
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Hashable, Optional, Sequence

from repro.mpi.collectives import CALLS, COLLECTIVES, NONBLOCKING, SENDS
from repro.mpi.errors import ProcessKilled, RawUsageError
from repro.mpi.tracing import TraceEvent

#: op-name categories a :class:`KillOnOp` / :class:`KillRandom` rule can
#: target instead of one exact raw op name ("recv" includes the probes,
#: neither point-to-point category ``sendrecv``)
OP_CATEGORIES: dict[str, frozenset[str]] = {
    "send": SENDS,
    "recv": frozenset(n for n, c in CALLS.items()
                      if c.kind == "p2p" and not c.sends),
    "collective": frozenset({*COLLECTIVES, *NONBLOCKING}),
    "rma": frozenset(n for n, c in CALLS.items() if c.kind == "rma"),
}


def _matches(selector: Optional[str], op: str) -> bool:
    """Whether an op-selector (exact name, category, or ``None`` = any) matches."""
    return selector is None or op in OP_CATEGORIES.get(selector, (selector,))


@dataclass(frozen=True)
class KillOnOp:
    """Kill ``rank`` at the entry of its ``nth`` operation matching ``op``.

    ``op`` is an exact raw op name (``"allreduce"``), a category from
    :data:`OP_CATEGORIES` (``"send"``, ``"collective"``, ``"rma"``), or
    ``None`` for any counted operation.  ``nth`` is 1-based and counts only
    matching operations of that rank.
    """

    rank: int
    op: Optional[str] = None
    nth: int = 1

    def __post_init__(self):
        if self.nth < 1:
            raise RawUsageError(f"KillOnOp.nth is 1-based, got {self.nth}")


@dataclass(frozen=True)
class KillMidCollective:
    """Kill ``rank`` *inside* a collective, between two internal p2p rounds.

    Fires during the ``call``-th invocation of collective ``op`` on that
    rank, at the entry of its ``after_p2p``-th internal point-to-point
    operation (deposit or receive) — i.e. after the victim already took part
    in ``after_p2p - 1`` rounds of the algorithm schedule.  ``algorithm``
    optionally restricts the rule to one registry schedule (resolved through
    the engine's fault hook).
    """

    rank: int
    op: str
    call: int = 1
    after_p2p: int = 1
    algorithm: Optional[str] = None

    def __post_init__(self):
        if self.call < 1 or self.after_p2p < 1:
            raise RawUsageError("KillMidCollective.call/after_p2p are 1-based")


@dataclass(frozen=True)
class KillRandom:
    """Seeded Bernoulli kill: at each matching op entry, die with ``rate``.

    Draws come from the campaign's per-rank random streams, so a pinned
    campaign seed replays the identical kill sites.  ``ranks`` restricts the
    candidate victims (``None`` = all), ``op`` is a name/category selector,
    and ``max_kills`` caps the total kills this rule may inject across the
    whole run (default one, so campaigns stay recoverable by buddy
    checkpointing).
    """

    rate: float
    ranks: Optional[frozenset[int]] = None
    op: Optional[str] = None
    max_kills: int = 1

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise RawUsageError(f"KillRandom.rate must be in [0, 1], got {self.rate}")
        if self.ranks is not None:
            object.__setattr__(self, "ranks", frozenset(self.ranks))


@dataclass(frozen=True)
class Straggler:
    """Slow-rank injection: make ``rank`` late at every counted operation.

    ``virtual_seconds`` is charged to the rank's virtual clock per operation
    (as local computation), so the straggle propagates through message
    arrival times and shows up in the simulated makespan exactly like a
    genuinely slow process.  ``real_seconds`` additionally sleeps real time,
    perturbing the thread interleaving the way the schedule fuzzer's delays
    do (the victim's peers really wait it out).
    """

    rank: int
    virtual_seconds: float = 0.0
    real_seconds: float = 0.0


@dataclass(frozen=True)
class KillAtCheckpoint:
    """Kill ``ranks`` at the named checkpoint.

    Program points opt in by calling :meth:`FaultCampaign.checkpoint`; this
    rule keeps scripted campaigns composable with the hook-driven kinds.
    """

    name: Hashable
    ranks: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "ranks", frozenset(self.ranks))


FaultRule = Any  # union of the rule dataclasses above


class _RankState:
    """Per-rank injection bookkeeping (touched only by that rank's thread)."""

    __slots__ = ("op_counts", "current_op", "current_call",
                 "current_algorithm", "p2p_in_op", "straggled", "rng")

    def __init__(self, rng: random.Random):
        self.op_counts: Counter = Counter()
        self.current_op: Optional[str] = None
        self.current_call = 0
        self.current_algorithm: Optional[str] = None
        self.p2p_in_op = 0
        self.straggled = False
        self.rng = rng


class FaultCampaign:
    """A set of fault rules injected into one :func:`~repro.mpi.machine.run_mpi`.

    Pass as ``run_mpi(..., faults=FaultCampaign([...]))`` (or through
    :func:`repro.core.runner.run`).  The campaign is consulted at every
    counted op entry and every internal p2p round; disabled machines carry
    ``faults=None``, so the uninjected hot path pays one ``None`` check.

    ``seed`` pins the random streams of :class:`KillRandom` rules; it
    defaults to ``REPRO_FAULT_SEED`` (and to 0 when neither is given).
    """

    def __init__(self, rules: Sequence[FaultRule] = (), *,
                 seed: Optional[int] = None):
        self.rules = list(rules)
        if seed is None:
            seed = env_fault_seed_default()
        self.seed = int(seed) if seed is not None else 0
        self._on_op_rules = [r for r in self.rules if isinstance(r, KillOnOp)]
        self._mid_rules = [r for r in self.rules
                           if isinstance(r, KillMidCollective)]
        self._random_rules = [r for r in self.rules if isinstance(r, KillRandom)]
        self._stragglers = [r for r in self.rules if isinstance(r, Straggler)]
        self._checkpoints: dict[Hashable, frozenset[int]] = {}
        for r in self.rules:
            if isinstance(r, KillAtCheckpoint):
                self._checkpoints[r.name] = (
                    self._checkpoints.get(r.name, frozenset()) | r.ranks
                )
        known = (KillOnOp, KillMidCollective, KillRandom, Straggler,
                 KillAtCheckpoint)
        for r in self.rules:
            if not isinstance(r, known):
                raise RawUsageError(f"unknown fault rule {r!r}")
        self._states: dict[int, _RankState] = {}
        self._lock = threading.Lock()
        self._kills_per_rule: Counter = Counter()
        #: log of injected faults: ``{"kind", "rank", "op", "detail"}`` dicts
        self.injected: list[dict[str, Any]] = []

    # -- machine wiring ----------------------------------------------------

    def attach(self, machine) -> None:
        """Bind the campaign to a machine (called by ``Machine.__init__``)."""
        for world_rank in range(machine.num_ranks):
            self._states[world_rank] = _RankState(
                random.Random(f"{self.seed}:rank-{world_rank}")
            )

    # -- hook: public op entry (RawComm._count) ----------------------------

    def on_op(self, comm, op: str) -> None:
        st = self._states[comm.world_rank]
        st.op_counts[op] += 1
        st.current_op = op
        st.current_call = st.op_counts[op]
        st.current_algorithm = None
        st.p2p_in_op = 0

        for rule in self._stragglers:
            if rule.rank == comm.world_rank:
                if not st.straggled:
                    st.straggled = True
                    self._record(comm, "straggler",
                                 f"slowing every op by {rule.virtual_seconds}s "
                                 f"virtual / {rule.real_seconds}s real")
                if rule.virtual_seconds:
                    comm.clock.compute(rule.virtual_seconds)
                if rule.real_seconds:
                    time.sleep(rule.real_seconds)

        for rule in self._on_op_rules:
            if rule.rank != comm.world_rank or not _matches(rule.op, op):
                continue
            # the rule's count: of every op, of its category's, or of op
            ops = (st.op_counts if rule.op is None
                   else OP_CATEGORIES.get(rule.op, (op,)))
            if sum(st.op_counts[o] for o in ops) == rule.nth:
                self._kill(comm, "kill_op",
                           f"op #{rule.nth} matching {rule.op!r} ({op})")

        for rule in self._random_rules:
            if rule.ranks is not None and comm.world_rank not in rule.ranks:
                continue
            if not _matches(rule.op, op):
                continue
            if st.rng.random() >= rule.rate:
                continue
            with self._lock:
                if self._kills_per_rule[id(rule)] >= rule.max_kills:
                    continue
                self._kills_per_rule[id(rule)] += 1
            self._kill(comm, "kill_random",
                       f"seeded kill (seed={self.seed}) at {op}")

    # -- hook: internal p2p round (RawComm._deposit/_recv, Run._advance) ----

    def on_internal(self, comm) -> None:
        st = self._states[comm.world_rank]
        st.p2p_in_op += 1
        for rule in self._mid_rules:
            if (rule.rank == comm.world_rank
                    and st.current_op == rule.op
                    and st.current_call == rule.call
                    and st.p2p_in_op == rule.after_p2p
                    and (rule.algorithm is None
                         or st.current_algorithm == rule.algorithm)):
                self._kill(comm, "kill_mid_collective",
                           f"inside {rule.op} call #{rule.call} "
                           f"(algorithm {st.current_algorithm}), "
                           f"after {rule.after_p2p - 1} p2p rounds")

    # -- hook: algorithm resolution (RawComm._coll_algo) --------------------

    def on_collective(self, comm, op: str, algorithm: str) -> None:
        """Note which registry schedule the current collective runs."""
        st = self._states[comm.world_rank]
        if st.current_op == op:
            st.current_algorithm = algorithm

    # -- scripted checkpoints ----------------------------------------------

    def checkpoint(self, comm, name: Hashable) -> None:
        """Kill the calling rank if a :class:`KillAtCheckpoint` rule says so."""
        victims = self._checkpoints.get(name)
        if victims and comm.world_rank in victims:
            self._kill(comm, "kill_checkpoint", f"checkpoint {name!r}")

    # -- bookkeeping -------------------------------------------------------

    def _record(self, comm, kind: str, detail: str) -> None:
        with self._lock:
            self.injected.append({
                "kind": kind, "rank": comm.world_rank,
                "op": self._states[comm.world_rank].current_op,
                "detail": detail,
            })
        tracer = comm.machine.tracer
        if tracer.enabled:
            t = comm.clock.now
            tracer._append(TraceEvent(
                op=f"fault:{kind}", world_rank=comm.world_rank,
                rank=comm.rank, comm=comm.comm_id, peers=(), tag=None,
                sent=0, recvd=0, t_start=t, t_end=t, algorithm=None,
            ))

    def _kill(self, comm, kind: str, detail: str) -> None:
        self._record(comm, kind, detail)
        comm.machine.mark_failed(comm.world_rank)
        raise ProcessKilled(comm.world_rank)

    def kills(self) -> list[dict[str, Any]]:
        """The injected kills (everything in :attr:`injected` except stragglers)."""
        return [f for f in self.injected if f["kind"] != "straggler"]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"FaultCampaign({len(self.rules)} rules, seed={self.seed}, "
                f"{len(self.injected)} injected)")


def env_fault_seed_default() -> Optional[int]:
    """The ``REPRO_FAULT_SEED`` environment seed, if one is set."""
    raw = os.environ.get("REPRO_FAULT_SEED", "").strip()
    return int(raw) if raw else None
