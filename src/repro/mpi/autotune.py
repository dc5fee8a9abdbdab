"""Online autotuning of collective algorithms (Open MPI ``coll_tuned`` style).

The engine's precedence chain has had an empty slot since PR 2: the
per-communicator tuning table sits between forced overrides and the
policies, but nothing ever filled it automatically.  This module closes the
loop between the simulator's closed-form α-β costs and *measured* reality:

1. **Harvest** — an :class:`AutoTuner` collects per-``(op, algorithm, p,
   nbytes)`` timings, either passively from any traced run
   (:meth:`AutoTuner.observe` reads
   :meth:`~repro.mpi.tracing.TraceRecorder.collective_samples`) or actively
   via :meth:`AutoTuner.sweep`, which forces each registered algorithm over
   a payload × communicator grid.  Virtual-clock samples are deterministic;
   a ``clock="wall"`` tuner times real process-backend runs instead.
2. **Fit** — measured timings are regressed onto the registered cost
   formulas by linear least squares
   (:func:`repro.mpi.costmodel.fit_alpha_beta`), yielding per-machine
   ``(alpha, beta, overhead)`` parameters with a relative-RMS residual that
   says how well the closed forms explain this machine.
3. **Synthesize** — per ``(op, p)``, the measured winner at each swept size
   becomes a size-bucketed :data:`~repro.mpi.engine.TuningRule` list
   (inclusive thresholds at geometric midpoints between adjacent swept
   sizes, catch-all on the largest), installed with
   ``source="learned"`` provenance so
   :meth:`~repro.mpi.engine.CollectiveEngine.explain` can attribute every
   decision.
4. **Persist** — tables and raw samples round-trip through JSON
   (``~/.repro/tuning/<machine-key>-<clock>.json`` by default), so a second
   run starts warm: ``run_mpi(fn, p, autotune=path)`` (or
   ``REPRO_AUTOTUNE=path``) installs the learned table before the run and
   folds the run's trace back into the store afterwards.

``python -m repro.mpi.autotune`` exposes the loop as a CLI
(``sweep`` / ``fit`` / ``inspect`` / ``export`` / ``check``); the ``check``
subcommand is the CI gate asserting a learned table never loses to the seed
defaults on the committed benchmark grid.

Known limits (DESIGN §14): tables are exact-``p`` (no interpolation across
communicator sizes), rooted collectives resolve size-blind by design so only
their catch-all bucket can ever match, and wall-clock fits on the process
backend include fork/pickle startup — their residual is reported precisely
so you know not to trust them too far.
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence

import numpy as np

from repro.mpi import algorithms as _registry
from repro.mpi.collectives import COLLECTIVES
from repro.mpi.costmodel import AlphaBetaFit, CostModel, fit_alpha_beta, linear_coefficients
from repro.mpi.engine import CollectiveEngine, TuningRule
from repro.mpi.errors import RawUsageError
from repro.mpi.machine import WORLD_ID, RunResult
from repro.mpi.ops import SUM

ENV_AUTOTUNE = "REPRO_AUTOTUNE"
ENV_AUTOTUNE_DIR = "REPRO_AUTOTUNE_DIR"

#: ops whose resolve-time ``nbytes`` hint is reconstructible from trace
#: events: those that declare one.  Rooted scatter-side ops resolve with
#: ``nbytes=0`` on purpose — only the root knows the payload — so learned
#: size buckets could never match them and they are not harvested.
#: (alltoallw declares a hint but has one registered algorithm, so
#: harvesting it can never change a selection.)
SIZE_HINTED_OPS = frozenset(
    c.name for c in COLLECTIVES.values() if c.hint is not None)

PERSIST_VERSION = 1


@dataclass(frozen=True)
class Sample:
    """One measured collective instance."""

    op: str
    algorithm: str
    p: int
    nbytes: int
    seconds: float

    def key(self) -> tuple:
        return (self.op, self.algorithm, self.p, self.nbytes, self.seconds)


def machine_key() -> str:
    """Stable identifier naming the machine a table was fitted on."""
    return f"{platform.node() or 'local'}-{platform.machine() or 'any'}"


def default_path(clock: str = "virtual") -> Path:
    """Default persistence path: ``~/.repro/tuning/<machine-key>-<clock>.json``.

    ``REPRO_AUTOTUNE_DIR`` overrides the directory (CI containers have no
    durable home)."""
    base = Path(os.environ.get(ENV_AUTOTUNE_DIR, "~/.repro/tuning"))
    return base.expanduser() / f"{machine_key()}-{clock}.json"


# -- sweep workloads ----------------------------------------------------------
#
# Module-level (picklable for the process backend) and SPMD-symmetric (the
# reprolint gate analyzes this file).  Payload values are derived from
# (seed, rank) so a pinned seed reproduces the sweep bit-for-bit; values
# never affect virtual timings, only the wire makes time pass.


def _payload(width: int, rank: int, seed: int) -> np.ndarray:
    return np.arange(width, dtype=np.int64) * (rank + 3) + rank + seed


def _sweep_allgather(comm, width: int, seed: int) -> None:
    comm.allgather(_payload(width, comm.rank, seed))


def _sweep_allreduce(comm, width: int, seed: int) -> None:
    comm.allreduce(_payload(width, comm.rank, seed), SUM)


def _sweep_alltoallv(comm, width: int, seed: int) -> None:
    p = comm.size
    buf = np.concatenate(
        [_payload(width, comm.rank * p + dst, seed) for dst in range(p)])
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


class AutoTuner:
    """Measure → fit → synthesize → install → persist, per machine.

    ``clock`` selects the measurement domain: ``"virtual"`` (default)
    harvests the deterministic per-rank virtual clocks from traces;
    ``"wall"`` times whole runs with ``time.perf_counter`` (the only honest
    option on the process backend, whose per-event wall times don't exist).
    A tuner never mixes domains — samples carry whichever clock it was
    constructed with.
    """

    def __init__(self, *, path: Optional[os.PathLike | str] = None,
                 cost_model: Optional[CostModel] = None,
                 clock: str = "virtual",
                 machine: Optional[str] = None):
        if clock not in ("virtual", "wall"):
            raise RawUsageError(
                f"unknown autotune clock {clock!r}; expected virtual|wall")
        self.path = Path(path) if path is not None else None
        self.cost_model = cost_model
        self.clock = clock
        self.machine = machine if machine is not None else machine_key()
        self.samples: list[Sample] = []

    # -- harvesting ----------------------------------------------------------

    def add_sample(self, op: str, algorithm: str, p: int, nbytes: int,
                   seconds: float) -> None:
        _registry.get(op, algorithm)  # typos fail at harvest, not synthesis
        self.samples.append(Sample(op, algorithm, int(p), int(nbytes),
                                   float(seconds)))

    def observe(self, result: RunResult) -> int:
        """Harvest a traced run's collective timings; returns samples added.

        Virtual-clock tuners only — trace timestamps are virtual seconds,
        and folding them into a wall-clock table would corrupt it, so a
        ``clock="wall"`` tuner ignores traces (returns 0)."""
        if self.clock != "virtual" or result.trace is None:
            return 0
        added = 0
        for op, algorithm, p, nbytes, seconds in \
                result.trace.collective_samples():
            if op in SIZE_HINTED_OPS:
                self.add_sample(op, algorithm, p, nbytes, seconds)
                added += 1
        return added

    def sweep(self, *, ops: Sequence[str] = tuple(SWEEP_WORKLOADS),
              ps: Sequence[int] = SWEEP_PS,
              widths: Sequence[int] = SWEEP_WIDTHS,
              backend: Optional[str] = None,
              seed: int = 0, iters: int = 1,
              deadline: float = 120.0) -> int:
        """Actively measure every registered algorithm over a grid.

        Each ``(op, p, width, algorithm)`` cell runs a forced-algorithm
        workload under an environment-blind engine (CI's ``REPRO_COLL_*``
        matrix must not leak into learned tables).  Virtual tuners harvest
        the run's trace; wall tuners time the whole ``run_mpi`` call and
        divide by ``iters``.  Returns samples added."""
        from repro.mpi.machine import run_mpi  # local: machine imports us lazily

        cm = self.cost_model if self.cost_model is not None else CostModel()
        added = 0
        for op in ops:
            if op not in SWEEP_WORKLOADS:
                raise RawUsageError(
                    f"no sweep workload for {op!r}; have "
                    f"{sorted(SWEEP_WORKLOADS)}")
            for p in ps:
                for width in widths:
                    for algo in _registry.algorithms(op):
                        engine = CollectiveEngine(
                            cm, overrides={op: algo.name}, env={})
                        if self.clock == "wall":
                            t0 = time.perf_counter()
                            for _ in range(iters):
                                run_mpi(SWEEP_WORKLOADS[op], p,
                                        args=(width, seed), cost_model=cm,
                                        engine=engine, backend=backend,
                                        deadline=deadline)
                            dt = (time.perf_counter() - t0) / max(iters, 1)
                            self.add_sample(op, algo.name, p,
                                            _hint_bytes(op, p, width), dt)
                            added += 1
                        else:
                            for _ in range(iters):
                                res = run_mpi(SWEEP_WORKLOADS[op], p,
                                              args=(width, seed),
                                              cost_model=cm, engine=engine,
                                              trace=True, backend=backend,
                                              deadline=deadline)
                                added += self.observe(res)
        return added

    # -- fitting -------------------------------------------------------------

    def fit(self) -> AlphaBetaFit:
        """Least-squares ``(alpha, beta, overhead)`` over all samples.

        Regresses measured seconds onto each sample's registered cost
        formula evaluated at its ``(p, nbytes)``; samples whose algorithm
        has no formula are skipped.  Raises :class:`ValueError` with fewer
        than 3 usable samples."""
        rows = []
        for s in self.samples:
            algo = _registry.get(s.op, s.algorithm)
            if algo.cost is None:
                continue
            rows.append((linear_coefficients(algo.cost, s.p, s.nbytes),
                         s.seconds))
        return fit_alpha_beta(rows)

    def fitted_model(self) -> CostModel:
        """A :class:`CostModel` carrying the fitted parameters (e.g. for
        ``CollectiveEngine(fitted, policy="costmodel")`` off-grid)."""
        return self.fit().model(self.cost_model)

    def residual_report(self) -> dict[str, Any]:
        """Fit quality summary: parameters plus worst-explained samples."""
        fit = self.fit()
        model = fit.model(self.cost_model)
        worst: list[dict[str, Any]] = []
        for s in self.samples:
            algo = _registry.get(s.op, s.algorithm)
            if algo.cost is None or s.seconds <= 0:
                continue
            pred = algo.cost(s.p, s.nbytes, model)
            worst.append({
                "op": s.op, "algorithm": s.algorithm, "p": s.p,
                "nbytes": s.nbytes, "measured": s.seconds,
                "predicted": pred,
                "rel_error": abs(pred - s.seconds) / s.seconds,
            })
        worst.sort(key=lambda r: -r["rel_error"])
        return {
            "alpha": fit.alpha, "beta": fit.beta, "overhead": fit.overhead,
            "residual": fit.residual, "samples": fit.samples,
            "worst": worst[:5],
        }

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

    def rules_for(self, op: str, p: int) -> Optional[tuple[TuningRule, ...]]:
        """Learned rules for one ``(op, p)``, or None if never measured."""
        return self.table().get(op, {}).get(p)

    def install(self, engine: CollectiveEngine, *, p: int,
                comm_id: Any = WORLD_ID) -> int:
        """Install this machine's learned rules for communicator size ``p``.

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
        """Write samples + fit + synthesized table as JSON; returns the path.

        Raw samples are persisted (sorted, so files are diffable and reloads
        are order-independent): a reloaded tuner re-synthesizes the same
        table bit-for-bit and can keep accumulating measurements."""
        target = Path(path) if path is not None else self.path
        if target is None:
            raise RawUsageError("save() needs a path (none set on tuner)")
        try:
            fitted = self.fit()
            fit: Optional[dict[str, Any]] = {
                "alpha": fitted.alpha, "beta": fitted.beta,
                "overhead": fitted.overhead, "residual": fitted.residual,
                "samples": fitted.samples,
            }
        except ValueError:
            fit = None
        payload = {
            "version": PERSIST_VERSION,
            "machine": self.machine,
            "clock": self.clock,
            "fit": fit,
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
        tuner = cls(path=path, cost_model=cost_model,
                    clock=payload.get("clock", "virtual"),
                    machine=payload.get("machine"))
        for op, algorithm, p, nbytes, seconds in payload.get("samples", ()):
            tuner.add_sample(op, algorithm, p, nbytes, seconds)
        return tuner


def resolve_autotune(value: Any = None,
                     env: Optional[Mapping[str, str]] = None
                     ) -> Optional[AutoTuner]:
    """Resolve ``run_mpi``'s ``autotune=`` argument to a tuner (or None).

    ``None`` consults ``REPRO_AUTOTUNE`` (unset/``0``/``off`` → disabled,
    ``1``/``on`` → the default per-machine path, anything else → that path);
    ``False`` disables even when the env var is set; ``True`` uses the
    default path; a string/path loads-or-creates a store there; an
    :class:`AutoTuner` instance is used as-is."""
    if env is None:
        env = os.environ
    if value is None:
        raw = env.get(ENV_AUTOTUNE, "").strip()
        if not raw or raw.lower() in ("0", "off", "false"):
            return None
        value = True if raw.lower() in ("1", "on", "true") else raw
    if value is False or value is None:
        return None
    if isinstance(value, AutoTuner):
        return value
    path = default_path() if value is True else Path(value)
    if path.exists():
        return AutoTuner.load(path)
    return AutoTuner(path=path)


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
    clock = ns.clock or ("wall" if ns.backend == "process" else "virtual")
    path = Path(ns.out) if ns.out else default_path(clock)
    if path.exists() and not ns.fresh:
        tuner = AutoTuner.load(path)
    else:
        tuner = AutoTuner(path=path, clock=clock)
    added = tuner.sweep(ops=ns.ops.split(","), ps=_parse_ints(ns.p),
                        widths=_parse_ints(ns.widths), backend=ns.backend,
                        seed=ns.seed, iters=ns.iters)
    tuner.save()
    print(f"harvested {added} samples ({tuner.clock} clock) -> {path}")
    _print_table(tuner)
    return 0


def _cmd_fit(ns) -> int:
    tuner = AutoTuner.load(ns.store)
    report = tuner.residual_report()
    print(f"machine {tuner.machine} ({tuner.clock} clock, "
          f"{report['samples']} samples)")
    print(f"  alpha    = {report['alpha']:.3e} s")
    print(f"  beta     = {report['beta']:.3e} s/byte")
    print(f"  overhead = {report['overhead']:.3e} s")
    print(f"  residual = {report['residual']:.3%} (relative RMS)")
    for row in report["worst"]:
        print(f"  worst: {row['op']}[{row['algorithm']}] p={row['p']} "
              f"nbytes={row['nbytes']}: measured {row['measured']:.3e} "
              f"vs predicted {row['predicted']:.3e} "
              f"({row['rel_error']:.1%} off)")
    return 0


def _cmd_inspect(ns) -> int:
    tuner = AutoTuner.load(ns.store)
    print(f"machine {tuner.machine}, clock {tuner.clock}, "
          f"{len(tuner.samples)} samples")
    _print_table(tuner)
    return 0


def _cmd_export(ns) -> int:
    tuner = AutoTuner.load(ns.store)
    table = tuner.table()
    print(json.dumps(
        {op: {str(p): [list(r) for r in rules] for p, rules in by_p.items()}
         for op, by_p in table.items()},
        indent=1, sort_keys=True))
    return 0


def _cmd_check(ns) -> int:
    """CI gate: the learned table never loses to the seed defaults.

    Replays the committed benchmark grid (``BENCH_coll_algorithms.json``)
    twice per cell — once under the untouched seed engine, once under the
    learned table — and fails if any tuned cell is slower.  Virtual clocks
    are deterministic, so "ties" are exact float equality, not tolerance."""
    from repro.mpi.machine import run_mpi

    tuner = AutoTuner.load(ns.store)
    cm = CostModel()
    with open(ns.baseline, "r", encoding="utf-8") as fh:
        baseline = json.load(fh)
    grid = sorted({(c["op"], c["p"], c["nbytes"]) for c in baseline["cells"]
                   if c["op"] in SWEEP_WORKLOADS})
    failures = 0
    for op, p, nbytes in grid:
        width = nbytes // ITEM
        seed_engine = CollectiveEngine(cm, env={})
        tuned_engine = CollectiveEngine(cm, env={})
        tuner.install(tuned_engine, p=p)
        t_seed = run_mpi(SWEEP_WORKLOADS[op], p, args=(width, ns.seed),
                         cost_model=cm, engine=seed_engine).max_time
        t_tuned = run_mpi(SWEEP_WORKLOADS[op], p, args=(width, ns.seed),
                          cost_model=cm, engine=tuned_engine).max_time
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
        description="measure, fit, and persist learned collective-tuning "
                    "tables")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p_sweep = sub.add_parser("sweep", help="measure a grid and update a store")
    p_sweep.add_argument("--ops", default=",".join(sorted(SWEEP_WORKLOADS)))
    p_sweep.add_argument("--p", default="4,8", help="comma-separated sizes")
    p_sweep.add_argument("--widths",
                         default=",".join(str(w) for w in SWEEP_WIDTHS),
                         help="comma-separated int64 element counts")
    p_sweep.add_argument("--backend", default=None,
                         help="execution backend (thread|process)")
    p_sweep.add_argument("--clock", default=None,
                         choices=("virtual", "wall"),
                         help="default: wall for process backend else virtual")
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--iters", type=int, default=1)
    p_sweep.add_argument("--out", default=None,
                         help=f"store path (default {default_path()})")
    p_sweep.add_argument("--fresh", action="store_true",
                         help="ignore an existing store instead of merging")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_fit = sub.add_parser("fit", help="fit α-β and report residuals")
    p_fit.add_argument("store")
    p_fit.set_defaults(fn=_cmd_fit)

    p_inspect = sub.add_parser("inspect", help="print a store's rule table")
    p_inspect.add_argument("store")
    p_inspect.set_defaults(fn=_cmd_inspect)

    p_export = sub.add_parser("export",
                              help="dump the synthesized table as JSON")
    p_export.add_argument("store")
    p_export.set_defaults(fn=_cmd_export)

    p_check = sub.add_parser(
        "check", help="assert the table beats/ties the seed on the committed "
                      "benchmark grid")
    p_check.add_argument("store")
    p_check.add_argument("--baseline", default="BENCH_coll_algorithms.json")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.set_defaults(fn=_cmd_check)

    ns = ap.parse_args(argv)
    return ns.fn(ns)


if __name__ == "__main__":
    raise SystemExit(main())
