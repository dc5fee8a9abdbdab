"""Learned collective-tuning tables from forced-algorithm sweeps.

The engine's precedence chain has a per-communicator tuning table between
forced overrides and the policies (:meth:`CollectiveEngine.install_tuning`).
This module fills it from measurement:

1. **Sweep** — :meth:`AutoTuner.sweep` runs one forced-algorithm
   ``run_mpi`` per ``(op, p, width, algorithm)`` cell and records that run's
   :attr:`~repro.mpi.machine.RunResult.max_time`: the makespan, the score
   the ``check`` gate and ``benchmarks/bench_coll_algorithms.py`` also use.
   Each cell's sample is keyed by the engine's ``nbytes`` hint for the call
   (:func:`_hint_bytes`), so a learned bucket matches the call that was
   measured.
2. **Synthesize** — per ``(op, p)``, the winner at each swept size becomes a
   size-bucketed :data:`~repro.mpi.engine.TuningRule` list (inclusive
   thresholds at geometric midpoints between adjacent swept sizes,
   catch-all on the largest), installed with ``source="learned"`` so
   :meth:`~repro.mpi.engine.CollectiveEngine.explain` attributes every
   decision.
3. **Persist** — the raw samples and the synthesized table round-trip
   through a JSON store; a reloaded tuner re-synthesizes the same table.

Samples are virtual seconds.  They depend on the cost model and the
schedules, not on the backend, the payload values or the host, so one sweep
per cell is exact and the table is not tied to a machine.

``python -m repro.mpi.autotune`` exposes ``sweep`` / ``inspect`` /
``check``; ``check`` is the CI gate asserting a learned table never loses
to the seed defaults on the committed benchmark grid.

Known limits (DESIGN §14): tables are exact-``p`` (no interpolation across
communicator sizes), and rooted collectives resolve size-blind by design,
so only their catch-all bucket could ever match.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Sequence

import numpy as np

from repro.mpi import algorithms as _registry
from repro.mpi.collectives import COLLECTIVES
from repro.mpi.costmodel import CostModel
from repro.mpi.engine import CollectiveEngine, TuningRule
from repro.mpi.errors import RawUsageError
from repro.mpi.machine import WORLD_ID, run_mpi
from repro.mpi.ops import SUM

PERSIST_VERSION = 2


@dataclass(frozen=True)
class Sample:
    """One measured sweep cell."""

    op: str
    algorithm: str
    p: int
    nbytes: int
    seconds: float

    def key(self) -> tuple:
        return (self.op, self.algorithm, self.p, self.nbytes, self.seconds)


# -- sweep workloads ----------------------------------------------------------
#
# Module-level (picklable for the process backend) and SPMD-symmetric (the
# reprolint gate analyzes this file).  Payload values never affect virtual
# timings; only the wire makes time pass.


def _payload(width: int, rank: int) -> np.ndarray:
    return np.arange(width, dtype=np.int64) * (rank + 3) + rank


def _sweep_allgather(comm, width: int) -> None:
    comm.allgather(_payload(width, comm.rank))


def _sweep_allreduce(comm, width: int) -> None:
    comm.allreduce(_payload(width, comm.rank), SUM)


def _sweep_alltoallv(comm, width: int) -> None:
    p = comm.size
    buf = np.concatenate(
        [_payload(width, comm.rank * p + dst) for dst in range(p)])
    comm.alltoallv(buf, [width] * p, [width] * p)


#: collective name -> workload (also the values ``--ops`` accepts)
SWEEP_WORKLOADS = dict(
    allgather=_sweep_allgather,
    allreduce=_sweep_allreduce,
    alltoallv=_sweep_alltoallv,
)

#: default sweep grid — matches benchmarks/bench_coll_algorithms.py
SWEEP_PS = (4, 8)
SWEEP_WIDTHS = (16, 1024, 65536)  # int64 elements: 128 B, 8 KiB, 512 KiB
ITEM = 8


def _hint_bytes(op: str, p: int, width: int) -> int:
    """The engine's ``nbytes`` hint for one sweep workload call."""
    hint = COLLECTIVES[op].hint
    if hint is None:
        return 0
    if hint == "payload":
        return width * ITEM
    return p * width * ITEM  # a count vector's total: p blocks of ``width``


def _run_cell(op: str, p: int, width: int, cm: CostModel,
              engine: CollectiveEngine) -> float:
    """Makespan of one sweep workload call under ``engine``."""
    return run_mpi(SWEEP_WORKLOADS[op], p, args=(width,), cost_model=cm,
                   engine=engine).max_time


class AutoTuner:
    """Sweep → synthesize → install → persist."""

    def __init__(self, *, path: Optional[os.PathLike | str] = None,
                 cost_model: Optional[CostModel] = None):
        self.path = Path(path) if path is not None else None
        self.cost_model = cost_model
        self.samples: list[Sample] = []

    def add_sample(self, op: str, algorithm: str, p: int, nbytes: int,
                   seconds: float) -> None:
        _registry.get(op, algorithm)  # a stored typo fails here, not later
        self.samples.append(Sample(op, algorithm, int(p), int(nbytes),
                                   float(seconds)))

    def sweep(self, *, ops: Sequence[str] = tuple(SWEEP_WORKLOADS),
              ps: Sequence[int] = SWEEP_PS,
              widths: Sequence[int] = SWEEP_WIDTHS) -> int:
        """Measure every registered algorithm over a grid.

        Each ``(op, p, width, algorithm)`` cell runs the op's workload once
        under an environment-blind engine forcing that algorithm (CI's
        ``REPRO_COLL_*`` matrix must not leak into learned tables) and
        records the run's makespan.  Returns samples added."""
        for op in ops:
            if op not in SWEEP_WORKLOADS:
                raise RawUsageError(
                    f"no sweep workload for {op!r}; have "
                    f"{sorted(SWEEP_WORKLOADS)}")
        cm = self.cost_model if self.cost_model is not None else CostModel()
        before = len(self.samples)
        for op in ops:
            for p in ps:
                for width in widths:
                    for algo in _registry.algorithms(op):
                        engine = CollectiveEngine(
                            cm, overrides={op: algo.name}, env={})
                        self.add_sample(op, algo.name, p,
                                        _hint_bytes(op, p, width),
                                        _run_cell(op, p, width, cm, engine))
        return len(self.samples) - before

    # -- table synthesis -----------------------------------------------------

    def table(self) -> dict[str, dict[int, tuple[TuningRule, ...]]]:
        """Synthesized ``{op: {p: canonical rules}}`` from measured winners.

        At each swept size the winner is the algorithm with the smallest
        mean measured time (ties keep registry default-first order, matching
        the argmin policy's tie-break, so a learned table never churns the
        seed choice without a measured reason).  Bucket thresholds fall at
        the geometric midpoint between adjacent swept sizes — multiplicative
        distance is the natural metric for payload crossovers — and the
        largest size's winner takes the catch-all."""
        by_cell: dict[tuple[str, int], dict[int, dict[str, list[float]]]] = {}
        for s in self.samples:
            by_size = by_cell.setdefault((s.op, s.p), {})
            by_size.setdefault(s.nbytes, {}).setdefault(
                s.algorithm, []).append(s.seconds)

        out: dict[str, dict[int, tuple[TuningRule, ...]]] = {}
        for (op, p), by_size in sorted(by_cell.items()):
            winners: list[tuple[int, str]] = []
            for size in sorted(by_size):
                means = {name: sum(ts) / len(ts)
                         for name, ts in by_size[size].items()}
                best, best_t = None, float("inf")
                for algo in _registry.algorithms(op):  # default first
                    t = means.get(algo.name)
                    if t is not None and t < best_t:
                        best, best_t = algo.name, t
                if best is not None:
                    winners.append((size, best))
            if not winners:
                continue
            rules: list[TuningRule] = []
            for i, (size, name) in enumerate(winners):
                if i + 1 < len(winners):
                    bound: Optional[int] = int(
                        (size * winners[i + 1][0]) ** 0.5)
                else:
                    bound = None
                if rules and rules[-1][1] == name:
                    rules[-1] = (bound, name)  # widen the previous bucket
                else:
                    rules.append((bound, name))
            out.setdefault(op, {})[p] = tuple(rules)
        return out

    def install(self, engine: CollectiveEngine, *, p: int,
                comm_id: Any = WORLD_ID) -> int:
        """Install the learned rules for communicator size ``p``.

        Only exact-``p`` tables are installed (no cross-size guessing);
        returns the number of ops that got rules.  Entries carry
        ``source="learned"`` so ``engine.explain()`` attributes them."""
        installed = 0
        for op, by_p in self.table().items():
            rules = by_p.get(p)
            if rules:
                engine.install_tuning(comm_id, op, rules, source="learned")
                installed += 1
        return installed

    # -- persistence ---------------------------------------------------------

    def save(self, path: Optional[os.PathLike | str] = None) -> Path:
        """Write samples + synthesized table as JSON; returns the path.

        Raw samples are persisted (sorted, so files are diffable and reloads
        are order-independent): a reloaded tuner re-synthesizes the same
        table bit-for-bit."""
        target = Path(path) if path is not None else self.path
        if target is None:
            raise RawUsageError("save() needs a path (none set on tuner)")
        payload = {
            "version": PERSIST_VERSION,
            "samples": [list(s.key()) for s in
                        sorted(self.samples, key=Sample.key)],
            "table": {
                op: {str(p): [list(r) for r in rules]
                     for p, rules in by_p.items()}
                for op, by_p in self.table().items()
            },
        }
        target.parent.mkdir(parents=True, exist_ok=True)
        with open(target, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return target

    @classmethod
    def load(cls, path: os.PathLike | str, *,
             cost_model: Optional[CostModel] = None) -> "AutoTuner":
        """Reload a persisted store; the tuner keeps ``path`` for re-saving."""
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        version = payload.get("version")
        if version != PERSIST_VERSION:
            raise RawUsageError(
                f"{path}: unsupported autotune store version {version!r}")
        tuner = cls(path=path, cost_model=cost_model)
        for op, algorithm, p, nbytes, seconds in payload.get("samples", ()):
            tuner.add_sample(op, algorithm, p, nbytes, seconds)
        return tuner


# -- CLI ----------------------------------------------------------------------


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x)


def _print_table(tuner: AutoTuner) -> None:
    table = tuner.table()
    if not table:
        print("(no samples — nothing synthesized)")
        return
    for op in sorted(table):
        for p in sorted(table[op]):
            rules = ", ".join(
                f"<={mb}B → {name}" if mb is not None else f"* → {name}"
                for mb, name in table[op][p])
            print(f"  {op:<12} p={p:<4} {rules}")


def _cmd_sweep(ns) -> int:
    tuner = AutoTuner(path=ns.out)
    added = tuner.sweep(ops=ns.ops.split(","), ps=_parse_ints(ns.p),
                        widths=_parse_ints(ns.widths))
    tuner.save()
    print(f"measured {added} samples -> {ns.out}")
    _print_table(tuner)
    return 0


def _cmd_inspect(ns) -> int:
    tuner = AutoTuner.load(ns.store)
    print(f"{len(tuner.samples)} samples")
    _print_table(tuner)
    return 0


def _cmd_check(ns) -> int:
    """CI gate: the learned table never loses to the seed defaults.

    Runs every ``(op, p, nbytes)`` cell of the committed benchmark grid
    (``BENCH_coll_algorithms.json``) twice — once under the untouched seed
    engine, once under the learned table — and fails if any tuned cell is
    slower.  Virtual clocks are deterministic, so "ties" are exact float
    equality, not tolerance."""
    tuner = AutoTuner.load(ns.store)
    cm = CostModel()
    with open(ns.baseline, "r", encoding="utf-8") as fh:
        baseline = json.load(fh)
    grid = sorted({(c["op"], c["p"], c["nbytes"]) for c in baseline["cells"]
                   if c["op"] in SWEEP_WORKLOADS})
    failures = 0
    for op, p, nbytes in grid:
        width = nbytes // ITEM
        tuned_engine = CollectiveEngine(cm, env={})
        tuner.install(tuned_engine, p=p)
        t_seed = _run_cell(op, p, width, cm, CollectiveEngine(cm, env={}))
        t_tuned = _run_cell(op, p, width, cm, tuned_engine)
        verdict = "tie" if t_tuned == t_seed else \
            ("win" if t_tuned < t_seed else "LOSS")
        decision = tuned_engine.explain(
            op, p=p, nbytes=_hint_bytes(op, p, width), comm_id=WORLD_ID)
        print(f"  {op:<12} p={p:<3} nbytes={nbytes:<8} "
              f"seed={t_seed:.3e} tuned={t_tuned:.3e} "
              f"[{decision.algorithm}/{decision.source}] {verdict}")
        if t_tuned > t_seed:
            failures += 1
    if failures:
        print(f"FAIL: learned table loses on {failures}/{len(grid)} cells")
        return 1
    print(f"OK: learned table beats or ties the seed on all "
          f"{len(grid)} cells")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    ap = argparse.ArgumentParser(
        prog="python -m repro.mpi.autotune",
        description="sweep, inspect and check learned collective-tuning "
                    "tables")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p_sweep = sub.add_parser("sweep", help="measure a grid into a new store")
    p_sweep.add_argument("--ops", default=",".join(sorted(SWEEP_WORKLOADS)))
    p_sweep.add_argument("--p", default=",".join(str(p) for p in SWEEP_PS),
                         help="comma-separated sizes")
    p_sweep.add_argument("--widths",
                         default=",".join(str(w) for w in SWEEP_WIDTHS),
                         help="comma-separated int64 element counts")
    p_sweep.add_argument("--out", default="learned.json", help="store path")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_inspect = sub.add_parser("inspect", help="print a store's rule table")
    p_inspect.add_argument("store")
    p_inspect.set_defaults(fn=_cmd_inspect)

    p_check = sub.add_parser(
        "check", help="assert the table beats/ties the seed on the committed "
                      "benchmark grid")
    p_check.add_argument("store")
    p_check.add_argument("--baseline", default="BENCH_coll_algorithms.json")
    p_check.set_defaults(fn=_cmd_check)

    ns = ap.parse_args(argv)
    return ns.fn(ns)


if __name__ == "__main__":
    raise SystemExit(main())
