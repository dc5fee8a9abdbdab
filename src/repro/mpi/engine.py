"""Per-call collective algorithm selection (the analog of MPICH CVARs /
Open MPI ``coll_tuned`` decision tables).

A :class:`CollectiveEngine` is attached to a :class:`~repro.mpi.machine.
Machine` and consulted once per collective call.  Selection precedence:

1. **Forced** algorithm: constructor ``overrides={'bcast': 'linear'}``, then
   ``REPRO_COLL_<OP>=<algo>`` environment variables (e.g.
   ``REPRO_COLL_ALLGATHER=ring``).
2. **Per-communicator tuning table**: size-bucketed rules installed with
   :meth:`tune` (what ``Communicator.use_algorithms`` writes), or with
   :meth:`install_tuning` which also records *provenance* — ``"tuned"`` for
   hand-installed rules, ``"learned"`` for tables fitted by
   :mod:`repro.mpi.autotune`.  :meth:`explain` returns the winning algorithm
   together with its source tier as a :class:`Decision`.
3. **Policy**: ``"costmodel"`` picks the argmin of the registered α-β cost
   formulas at the call's ``(p, nbytes)``; ``"default"`` (the default) uses
   the static seed algorithms.  ``REPRO_COLL_POLICY`` overrides the default.

The default policy is deliberately *not* the live argmin: the seed's
defaults are the frozen decision table this repo's golden traces and perf
cross-validation are pinned to, while the argmin legitimately disagrees with
them on a contention-free α-β model (e.g. spread-out alltoallv always beats
pairwise by ~(p−2)·α).  Opting in via ``REPRO_COLL_POLICY=costmodel`` turns
the crossover analysis of the paper's §V into actual behavior.

Selection must be SPMD-consistent: every rank of one call must reach the
same decision.  All inputs here are symmetric — ``p``, the tuning table, the
environment (one process), and ``nbytes`` by each collective's hint
convention, declared in :mod:`repro.mpi.collectives` (rooted scatter-side
ops always pass 0 because only the root knows the payload; symmetric ops
pass locally-known sizes that MPI's matching-count semantics make equal
everywhere).  The one sanctioned
exception: alltoall(v)'s pairwise and spread schedules exchange identical
message sets with explicit-source receives, so even a divergent pick would
match correctly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Hashable, Mapping, Optional, Sequence

from repro.mpi import algorithms as _registry
from repro.mpi.algorithms import Algorithm
from repro.mpi.constants import WORLD_ID
from repro.mpi.costmodel import CostModel
from repro.mpi.errors import RawUsageError

ENV_PREFIX = "REPRO_COLL_"
ENV_POLICY = "REPRO_COLL_POLICY"

_POLICIES = ("default", "costmodel")

#: a tuning rule: apply ``algorithm`` when ``nbytes <= max_bytes``
#: (inclusive: a call whose hint is exactly ``max_bytes`` takes this rule;
#: ``max_bytes=None`` matches any size).  Rule lists are canonicalized on
#: install — sorted ascending by threshold with the ``None`` catch-all last —
#: so after :meth:`CollectiveEngine.check_rules` each rule covers the
#: half-open bucket ``(previous max_bytes, max_bytes]``.
TuningRule = tuple[Optional[int], str]

#: where a resolution came from, in precedence order
DECISION_SOURCES = ("forced", "scoped", "learned", "tuned", "costmodel", "default")


@dataclass(frozen=True)
class Decision:
    """Provenance of one algorithm resolution (see :meth:`CollectiveEngine.
    explain`).

    ``source`` is one of :data:`DECISION_SOURCES`; ``rule`` is the matched
    :data:`TuningRule` when the decision came from a scoped or installed
    rule list, else ``None``."""

    op: str
    algorithm: str
    source: str
    p: int
    nbytes: int
    comm_id: Hashable = None
    rule: Optional[TuningRule] = None


def forced_from_env(env: Mapping[str, str]) -> dict[str, str]:
    """Parse ``REPRO_COLL_<OP>=<algo>`` overrides out of an environment."""
    forced: dict[str, str] = {}
    for key, value in env.items():
        if not key.startswith(ENV_PREFIX) or key == ENV_POLICY:
            continue
        op = key[len(ENV_PREFIX):].lower()
        if op not in _registry.collectives():
            raise RawUsageError(
                f"{key}: unknown collective {op!r}; known: "
                f"{', '.join(_registry.collectives())}"
            )
        forced[op] = value
    return forced


class CollectiveEngine:
    """Resolves (collective, p, nbytes, communicator) → :class:`Algorithm`."""

    def __init__(self, cost_model: Optional[CostModel] = None, *,
                 policy: Optional[str] = None,
                 overrides: Optional[Mapping[str, str]] = None,
                 env: Optional[Mapping[str, str]] = None):
        if env is None:
            env = os.environ
        self.cost_model = cost_model if cost_model is not None else CostModel()
        if policy is None:
            policy = env.get(ENV_POLICY, "default")
        if policy not in _POLICIES:
            raise RawUsageError(
                f"unknown selection policy {policy!r}; expected one of {_POLICIES}"
            )
        self.policy = policy
        forced = forced_from_env(env)
        if overrides:
            forced.update(overrides)
        # Resolve eagerly so typos fail at construction, not mid-run.
        self._forced: dict[str, Algorithm] = {
            op: _registry.get(op, name) for op, name in forced.items()
        }
        self._tuning: dict[tuple[Hashable, str], tuple[TuningRule, ...]] = {}
        self._tuning_source: dict[tuple[Hashable, str], str] = {}

    # -- tuning table --------------------------------------------------------

    def check_rules(self, op: str, selection) -> tuple[TuningRule, ...]:
        """Normalize an algorithm name or rules list into canonical rules.

        ``selection`` is either a plain algorithm name or a sequence of
        ``(max_bytes | None, name)`` pairs; every name is resolved against
        the registry so typos fail here, not mid-collective.

        Canonicalization fixes the historical foot-gun where overlapping or
        unsorted ``max_bytes`` ranges silently resolved first-match (an
        out-of-order catch-all shadowed every later bucket): rules are
        sorted ascending by threshold with the ``None`` catch-all last, and
        duplicate thresholds — two rules that would cover the *same* bucket,
        one dead — are rejected.  Thresholds are inclusive upper bounds
        (``nbytes <= max_bytes``), so canonical rule *i* covers the bucket
        ``(max_bytes[i-1], max_bytes[i]]``."""
        if isinstance(selection, str):
            rules: Sequence[TuningRule] = [(None, selection)]
        else:
            rules = list(selection)
        if not rules:
            raise RawUsageError(f"{op}: empty tuning-rule list")
        checked = []
        for max_bytes, name in rules:
            _registry.get(op, name)  # validate eagerly
            if max_bytes is not None:
                if not isinstance(max_bytes, int) or isinstance(max_bytes, bool):
                    raise RawUsageError(
                        f"{op}: tuning-rule max_bytes must be int or None, "
                        f"got {max_bytes!r}")
                if max_bytes < 0:
                    raise RawUsageError(
                        f"{op}: tuning-rule max_bytes must be >= 0, "
                        f"got {max_bytes}")
            checked.append((max_bytes, name))
        checked.sort(key=lambda r: (r[0] is None, r[0] if r[0] is not None else 0))
        for prev, cur in zip(checked, checked[1:]):
            if prev[0] == cur[0]:
                what = "catch-all (None)" if cur[0] is None else f"max_bytes={cur[0]}"
                raise RawUsageError(
                    f"{op}: overlapping tuning rules — duplicate {what} "
                    f"({prev[1]!r} shadows {cur[1]!r})")
        return tuple(checked)

    def tune(self, comm_id: Hashable, op: str, algorithm: Optional[str] = None,
             rules: Optional[Sequence[TuningRule]] = None) -> None:
        """Install a per-communicator rule: a fixed ``algorithm``, or a
        size-bucketed ``rules`` list ``[(max_bytes|None, name), ...]`` applied
        first-match by the call's ``nbytes`` hint.

        The table is engine-wide shared state: install rules before a run
        (or from a single controlling thread while no collective is in
        flight), never from inside rank code mid-run — a rank observing the
        table mid-mutation would diverge from its peers.  Rank code wants
        :meth:`Communicator.use_algorithms <repro.core.communicator.
        Communicator.use_algorithms>`, whose rules are rank-local."""
        if (algorithm is None) == (rules is None):
            raise RawUsageError("tune() takes exactly one of algorithm/rules")
        selection = algorithm if algorithm is not None else rules
        self.install_tuning(comm_id, op, selection)

    def install_tuning(self, comm_id: Hashable, op: str, selection, *,
                       source: str = "tuned") -> tuple[TuningRule, ...]:
        """Validate, canonicalize, and install tuning rules with provenance.

        ``source`` tags where the table entry came from — ``"tuned"`` for
        hand-installed rules (:meth:`tune`), ``"learned"`` for rules fitted
        by :class:`~repro.mpi.autotune.AutoTuner` — and is surfaced by
        :meth:`explain`.  Returns the canonical rules."""
        if source not in DECISION_SOURCES:
            raise RawUsageError(
                f"unknown tuning source {source!r}; expected one of "
                f"{DECISION_SOURCES}")
        rules = self.check_rules(op, selection)
        self._tuning[(comm_id, op)] = rules
        self._tuning_source[(comm_id, op)] = source
        return rules

    def rules(self, comm_id: Hashable, op: str) -> Optional[tuple[TuningRule, ...]]:
        """Currently installed tuning rules for ``(comm_id, op)``, or None."""
        return self._tuning.get((comm_id, op))

    def untune(self, comm_id: Hashable, op: Optional[str] = None) -> None:
        """Remove tuning rules for one op (or all ops) of a communicator."""
        if op is not None:
            self._tuning.pop((comm_id, op), None)
            self._tuning_source.pop((comm_id, op), None)
            return
        for key in [k for k in self._tuning if k[0] == comm_id]:
            del self._tuning[key]
            self._tuning_source.pop(key, None)

    # -- selection -----------------------------------------------------------

    def size_sensitive(self, op: str, comm_id: Hashable = None, *,
                       scoped: Optional[Sequence[TuningRule]] = None) -> bool:
        """Whether resolving ``op`` needs an ``nbytes`` hint.

        Kept cheap and conservative so the pure-default hot path never sizes
        payloads (the zero-overhead principle: don't measure what no policy
        will look at).  ``scoped`` is the caller's rank-local rule list, if
        any (it shadows the engine-wide table)."""
        if op in self._forced:
            return False
        rules = scoped if scoped is not None else self._tuning.get((comm_id, op))
        if rules is not None:
            return any(max_bytes is not None for max_bytes, _ in rules)
        return self.policy == "costmodel"

    def resolve(self, op: str, *, p: int, nbytes: int = 0,
                comm_id: Hashable = None,
                scoped: Optional[Sequence[TuningRule]] = None) -> Algorithm:
        """Pick the algorithm of one collective call (the hot path, free of
        side effects; :meth:`explain` says why).  ``nbytes`` follows the hint
        convention ``op`` declares in :mod:`repro.mpi.collectives`."""
        return self._decide(op, p=p, nbytes=nbytes, comm_id=comm_id,
                            scoped=scoped)[0]

    def explain(self, op: str, *, p: int, nbytes: int = 0,
                comm_id: Hashable = WORLD_ID,
                scoped: Optional[Sequence[TuningRule]] = None) -> Decision:
        """Resolve like :meth:`resolve`, but return the full :class:`Decision`
        — which algorithm won, from which precedence tier (``source``), and
        which tuning rule matched, if any.

        Unlike the hot-path methods (which receive the communicator id of
        the actual call), ``comm_id`` defaults to :data:`WORLD_ID` — runs
        execute on the world communicator, so that is the tuning table a
        user asking "what would this engine pick?" means; pass
        ``comm_id=None`` to inspect the table-free decision."""
        algo, source, rule = self._decide(op, p=p, nbytes=nbytes,
                                          comm_id=comm_id, scoped=scoped)
        return Decision(op=op, algorithm=algo.name, source=source, p=p,
                        nbytes=nbytes, comm_id=comm_id, rule=rule)

    def _decide(self, op: str, *, p: int, nbytes: int,
                comm_id: Hashable,
                scoped: Optional[Sequence[TuningRule]],
                ) -> tuple[Algorithm, str, Optional[TuningRule]]:
        forced = self._forced.get(op)
        if forced is not None:
            return forced, "forced", None
        if scoped is not None:
            rules, source = scoped, "scoped"
        else:
            rules = self._tuning.get((comm_id, op))
            source = self._tuning_source.get((comm_id, op), "tuned")
        if rules is not None:
            for max_bytes, name in rules:
                if max_bytes is None or nbytes <= max_bytes:
                    return _registry.get(op, name), source, (max_bytes, name)
        if self.policy == "costmodel":
            return self._argmin(op, p, nbytes), "costmodel", None
        return _registry.default(op), "default", None

    def _argmin(self, op: str, p: int, nbytes: int) -> Algorithm:
        # Iterate default-first with a strict '<' so ties keep the seed
        # algorithm (and the seed's exact traces).
        best = None
        best_cost = float("inf")
        for algo in _registry.algorithms(op):
            if algo.cost is None:
                continue
            cost = algo.cost(p, nbytes, self.cost_model)
            if cost < best_cost:
                best, best_cost = algo, cost
        return best if best is not None else _registry.default(op)

    def describe(self) -> dict:
        """Snapshot of the engine's configuration (for debugging/docs)."""
        return {
            "policy": self.policy,
            "forced": {op: a.name for op, a in self._forced.items()},
            "tuning": {
                f"{comm_id}/{op}": list(rules)
                for (comm_id, op), rules in self._tuning.items()
            },
            "tuning_sources": {
                f"{comm_id}/{op}": source
                for (comm_id, op), source in self._tuning_source.items()
            },
        }
