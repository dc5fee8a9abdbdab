"""Registry of collective algorithms: one schedule generator per algorithm.

Real MPI implementations ship several algorithms per collective and pick one
per call from message size, communicator size, and topology (MPICH's
``MPIR_CVAR_*``, Open MPI's ``coll_tuned_*`` decision tables).  Here every
algorithm is written down once, as a **schedule**: a plain generator of
``(p, rank, *collective args)`` that yields the typed steps of
:mod:`repro.mpi.algorithms.schedule` (``Tag``, ``Send``, ``Recv``, …), does
all payload manipulation and validation itself, composes with ``yield from``,
returns the collective's result and never touches a communicator.
Everything else is derived from it:

- **blocking run** — :attr:`Algorithm.fn` is ``Run(comm, schedule(...)).wait()``;
  :class:`~repro.mpi.algorithms.schedule.Run` is the one driver that owns
  collective tags, mailbox traffic, clock charges and fault hooks, so PMPI
  counters still see one call per collective;
- **progress-on-test** — :mod:`repro.mpi.nbc` hands the same ``Run`` to the
  caller as the request of ``ibcast``/``iallreduce``/``iallgather``;
- **static fragment** — :meth:`Algorithm.fragment` co-runs the p generators
  on one thread and records each rank's send/receive sequence.

Each registration (:func:`collective_algorithm`) also carries a **closed-form
α-β cost formula** of what the schedule does on the simulator (cross-validated
in ``tests/perf/test_algorithm_costs.py``); the
:class:`~repro.mpi.engine.CollectiveEngine` resolves ``(collective, p,
nbytes, comm)`` to one :class:`Algorithm` per call.  Defaults
(``default=True``) are the seed's originals, so the default policy reproduces
the seed's traces bit-for-bit.

Schedules must be **pattern-deterministic**: every rank derives the same
send/receive sequence from ``(p, rank, root)`` plus symmetric arguments,
never from payload *content*, so that all ranks of one collective call can
safely run the same registered algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.mpi.algorithms.schedule import (
    UNSOUND,
    FragmentUnsound,
    Run,
    Schedule,
    _witness,
    corun,
)
from repro.mpi.errors import RawUsageError

#: cost formula signature: ``(p, nbytes, cost_model) -> seconds``, where
#: ``nbytes`` follows the per-collective hint convention declared in
#: :mod:`repro.mpi.collectives`.
CostFn = Callable[[int, int, object], float]


@dataclass(frozen=True)
class Algorithm:
    """One registered implementation of one collective."""

    collective: str
    name: str
    #: ``fn(comm, *collective args)`` — runs the collective to completion
    fn: Callable
    #: closed-form α-β cost of the simulated execution (``None`` exempts the
    #: algorithm from cost-model selection — it is then only reachable as the
    #: default or through overrides/tuning)
    cost: Optional[CostFn] = None
    description: str = ""
    #: the schedule generator ``fn`` drives (``None`` only for the p = 1
    #: fast paths of :mod:`~repro.mpi.algorithms.singleton`)
    schedule: Optional[Schedule] = None

    def predict(self, p: int, nbytes: int, cost_model) -> float:
        if self.cost is None:
            raise RawUsageError(
                f"algorithm {self.collective}/{self.name} has no cost formula"
            )
        return self.cost(p, nbytes, cost_model)

    def fragment(self, p: int, rank: int, root: int = 0) -> tuple:
        """This rank's ``("send" | "recv", peer)`` sequence at ``(p, root)``,
        recorded from a co-run of the schedule under witness arguments;
        :class:`FragmentUnsound` for the algorithms in :data:`UNSOUND`."""
        if not 0 <= rank < p:
            raise RawUsageError(f"rank {rank} out of range for p={p}")
        if not 0 <= root < p:
            raise RawUsageError(f"root {root} out of range for p={p}")
        reason = UNSOUND.get((self.collective, self.name))
        if reason is not None:
            raise FragmentUnsound(
                f"{self.collective}/{self.name} has no static fragment: "
                f"{reason}")
        steps, _ = corun(self.schedule, p,
                         lambda r: _witness(self.collective, p, r, root))
        return tuple(steps[rank])


_REGISTRY: dict[str, dict[str, Algorithm]] = {}
_DEFAULTS: dict[str, str] = {}


def collective_algorithm(collective: str, name: str, *, default: bool = False,
                         cost: Optional[CostFn] = None,
                         description: str = ""):
    """Decorator registering a schedule generator under ``collective/name``."""

    def wrap(schedule: Schedule) -> Schedule:
        table = _REGISTRY.setdefault(collective, {})
        if name in table:
            raise RawUsageError(
                f"algorithm {collective}/{name} registered twice"
            )

        def fn(comm, *args):
            return Run(comm, schedule(comm.state.size, comm._rank, *args)).wait()

        table[name] = Algorithm(collective=collective, name=name, fn=fn,
                                cost=cost, description=description,
                                schedule=schedule)
        if default:
            if collective in _DEFAULTS:
                raise RawUsageError(
                    f"collective {collective} has two default algorithms"
                )
            _DEFAULTS[collective] = name
        return schedule

    return wrap


def collectives() -> tuple[str, ...]:
    """All collectives with registered algorithms, sorted."""
    return tuple(sorted(_REGISTRY))


def names(collective: str) -> tuple[str, ...]:
    """Registered algorithm names for one collective (default first)."""
    table = _table(collective)
    default = _DEFAULTS[collective]
    return (default,) + tuple(sorted(n for n in table if n != default))


def algorithms(collective: str) -> tuple[Algorithm, ...]:
    """Registered algorithms for one collective (default first)."""
    table = _table(collective)
    return tuple(table[n] for n in names(collective))


def get(collective: str, name: str) -> Algorithm:
    """Look up one algorithm; raises with the available names on a miss."""
    table = _table(collective)
    algo = table.get(name)
    if algo is None:
        raise RawUsageError(
            f"unknown algorithm {name!r} for {collective}; registered: "
            f"{', '.join(names(collective))}"
        )
    return algo


def default(collective: str) -> Algorithm:
    """The seed-compatible default algorithm of one collective."""
    return _table(collective)[_DEFAULTS[collective]]


def default_name(collective: str) -> str:
    _table(collective)
    return _DEFAULTS[collective]


def _table(collective: str) -> dict[str, Algorithm]:
    table = _REGISTRY.get(collective)
    if table is None:
        raise RawUsageError(
            f"unknown collective {collective!r}; registered: "
            f"{', '.join(collectives())}"
        )
    return table


# Populate the registry.  Each module depends on the decorator above, the
# step types, and the schedules it composes with ``yield from``.
from repro.mpi.algorithms import (  # noqa: E402  (registration imports)
    allgather as _allgather,
    alltoall as _alltoall,
    barrier as _barrier,
    bcast as _bcast,
    gather_scatter as _gather_scatter,
    neighbor as _neighbor,
    reduce as _reduce,
)
from repro.mpi.algorithms.singleton import SINGLETON  # noqa: E402

__all__ = [
    "Algorithm", "CostFn", "collective_algorithm",
    "collectives", "names", "algorithms", "get", "default", "default_name",
    "SINGLETON",
]
