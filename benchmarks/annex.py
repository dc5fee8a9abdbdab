"""Annex workloads: measured the way ``bench_layers`` measures, outside its eight.

``bench_layers`` is the benchmark ``BENCHMARK.json`` declares, and its eight
workloads stay the regression gate.  What another measurement needs and
those eight lack is added here instead, built from its parts and copying
neither: each annex workload is a :class:`bench_layers.workloads.Workload`,
timed by :mod:`bench_layers.harness` (rounds of a wrapped batch, a raw batch
and the reference loop; ten fresh launches), and run as ``run.py`` runs one
— a fresh process per workload, pinned to one CPU.  ``--out`` writes ``run.py --out``'s JSON
shape.  ``bench_layers/compare.py`` only judges the workloads
``BENCHMARK.json`` names, so ``compare`` here runs it on two annex files
with the annex's workloads in their place (and ``BENCHMARK.json``'s
end-to-end bounds)::

    python benchmarks/annex.py --out annex.json --repeats 3
    python benchmarks/annex.py --workload floor_thread_p4 --seconds 5
    python benchmarks/annex.py compare parent.json change.json

**The floors.**  ``floor_thread_p2`` is an 8 B ping-pong, ``floor_thread_p4``
a recursive-doubling allreduce of one int64 over four ranks.  Their wrapped
side is the raw runtime (``raw.send`` / ``raw.recv``, ``raw.allreduce``);
their raw side is the same exchange on the same rank threads over bare
``_thread`` locks — one deque and one wake-up lock per ordered rank pair,
one payload copy per message (a buffered send's snapshot) and one
``np.add`` per round.  So their ``wrapped_raw_ratio`` is how many times the
floor a thread message costs.

**The mixed launch.**  ``launch_mixed_p4`` times whole ``run_mpi`` launches
of ``bench_overhead``'s mixed program (20 rounds of a ring send/recv and an
allreduce at p = 4): its wrapped side on the process backend, its raw side
on threads, so its ``wrapped_raw_ratio`` is what a process launch costs in
thread launches.  ``benchmarks/check_baseline.py`` gates it against the
committed ``BENCH_annex.json``.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()  # before the heavy imports: set-up pays them

import argparse
import json
import resource
import subprocess
import sys
from _thread import allocate_lock
from collections import deque
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:  # run as a script: make bench_layers importable
    sys.path.insert(0, str(ROOT))

import bench_layers  # noqa: E402

bench_layers.use_checkout_sources()  # before anything imports repro

from bench_layers import compare  # noqa: E402
from bench_layers.harness import (  # noqa: E402
    Side, measure_rounds, path_metrics, scalar, summary)
from bench_layers.run import (  # noqa: E402
    QUICK_SECONDS, SETUP_SAMPLES, SPEC, pin_to_one_cpu, print_metrics, stamp)
from bench_layers.workloads import Outcome, Workload  # noqa: E402

import numpy as np  # noqa: E402

from repro.mpi import SUM  # noqa: E402


class _Links:
    """The floor's transport: per ordered rank pair a deque and a raw lock.

    A send copies the payload, appends it and releases the lock if it is
    held; a receive acquires the lock until its deque has something.  One
    sender per pair and a receiver that only acquires: no wake-up is lost
    (a release is consumed by the next acquire), a spare one only re-checks.
    """

    def __init__(self, p: int):
        pairs = [(s, d) for s in range(p) for d in range(p) if s != d]
        self.queues = {pair: deque() for pair in pairs}
        self.locks = {pair: allocate_lock() for pair in pairs}
        for lock in self.locks.values():
            lock.acquire()

    def send(self, src: int, dst: int, payload: np.ndarray) -> None:
        self.queues[src, dst].append(payload.copy())
        lock = self.locks[src, dst]
        if lock.locked():
            lock.release()

    def recv(self, src: int, dst: int) -> np.ndarray:
        queue, lock = self.queues[src, dst], self.locks[src, dst]
        while not queue:
            lock.acquire()
        return queue.popleft()


class _Floor(Workload):
    """A workload whose raw side runs over fresh :class:`_Links` per launch."""

    def launch(self, inputs, seconds, traced=False):
        return super().launch({**inputs, "links": _Links(self.p)}, seconds,
                              traced)


class FloorThreadP2(_Floor):
    name = "floor_thread_p2"
    why = ("an 8 B thread ping-pong through the raw runtime against the same "
           "round trip over bare locks: the per-message floor")
    p = 2
    ROUNDS = 100  # round trips per batch

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        return {"base": int(rng.integers(0, 2**40))}

    def sides(self, raw, inputs, wrap=None):
        links, n, base = inputs["links"], self.ROUNDS, inputs["base"]
        v = np.zeros(1, np.int64)
        expected = (base + np.arange(n, dtype=np.int64)).reshape(n, 1)

        if raw.rank == 0:
            def runtime():
                out = []
                t0 = perf_counter()
                for i in range(n):
                    v[0] = base + i  # a stale or repeated echo is a mismatch
                    raw.send(v, 1)
                    out.append(raw.recv(1)[0])
                return perf_counter() - t0, out

            def floor():
                out = []
                t0 = perf_counter()
                for i in range(n):
                    v[0] = base + i
                    links.send(0, 1, v)
                    out.append(links.recv(1, 0))
                return perf_counter() - t0, out
        else:
            def runtime():
                out = []
                t0 = perf_counter()
                for _ in range(n):
                    got = raw.recv(0)[0]
                    raw.send(got, 0)
                    out.append(got)
                return perf_counter() - t0, out

            def floor():
                out = []
                t0 = perf_counter()
                for _ in range(n):
                    got = links.recv(0, 1)
                    links.send(1, 0, got)
                    out.append(got)
                return perf_counter() - t0, out

        def check(out):
            return _mismatches(out, expected)

        return Side(runtime, check, n), Side(floor, check, n)


class FloorThreadP4(_Floor):
    name = "floor_thread_p4"
    why = ("a p = 4 allreduce of one int64 through the raw runtime against "
           "the same recursive-doubling exchange over bare locks")
    p = 4
    CALLS = 40  # allreduces per batch

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        return {"one": rng.integers(-2**30, 2**30, size=1, dtype=np.int64)}

    def sides(self, raw, inputs, wrap=None):
        links, n, p, r = inputs["links"], self.CALLS, raw.size, raw.rank
        one = inputs["one"] + r
        expected = p * inputs["one"] + p * (p - 1) // 2

        def runtime():
            out = []
            t0 = perf_counter()
            for _ in range(n):
                out.append(raw.allreduce(one, SUM))
            return perf_counter() - t0, out

        def floor():
            out = []
            t0 = perf_counter()
            for _ in range(n):
                acc, mask = one, 1
                while mask < p:
                    partner = r ^ mask
                    links.send(r, partner, acc)
                    acc = np.add(acc, links.recv(partner, r))
                    mask <<= 1
                out.append(acc)
            return perf_counter() - t0, out

        def check(out):
            return _mismatches(out, expected)

        return Side(runtime, check, n), Side(floor, check, n)


class LaunchMixedP4(Workload):
    name = "launch_mixed_p4"
    why = ("one whole launch of a mixed p2p + collective program at p = 4 on "
           "the process backend against the same launch on threads")
    p = 4

    def inputs(self, seed):
        return {}

    def launch(self, inputs, seconds, traced=False):
        """Rounds of one launch per backend, timed from this process."""
        # imported here, so that the floors' processes load neither pytest
        # nor the bindings that bench_overhead brings in
        from benchmarks.bench_overhead import _backend_workload
        from repro.mpi import run_mpi

        def side(backend):
            def once():
                t0 = perf_counter()
                res = run_mpi(_backend_workload, self.p, backend=backend)
                return perf_counter() - t0, res.values

            return Side(once, lambda values: int(len(set(values)) != 1), 1)

        return Outcome(measure_rounds(side("process"), side("thread"),
                                      seconds))


def _mismatches(out: list, expected: np.ndarray) -> int:
    """How many of the batch's results differ from ``expected``."""
    return int((np.asarray(out) != expected).reshape(len(out), -1)
               .any(axis=1).sum())


WORKLOADS = {w.name: w for w in (FloorThreadP2(), FloorThreadP4(),
                                 LaunchMixedP4())}


# -- one workload, in this process --------------------------------------------

def end_to_end(name: str, seed: int, seconds: float, setup_samples: int
               ) -> tuple[dict, dict, int, int]:
    """``run.py``'s untraced measurement of one annex workload."""
    workload = WORKLOADS[name]
    rounds = workload.run(seed, seconds).rounds
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [rounds.first_timed - _PROCESS_START]
    for _ in range(setup_samples):
        setups.append(float(_child(name, seed, 0.0, True).splitlines()[-1]))
    measured = path_metrics(rounds)
    metrics = {
        "wrapped_raw_ratio": measured["a_b_ratio"],
        "op_ref_ratio": measured["a_ref_ratio"],
        "peak_rss_mib": scalar(rss, "MiB"),
        "setup_s": summary(setups, "s"),
    }
    absolute = {"op_us": measured["op_us"], "raw_op_us": measured["b_op_us"],
                "ops_per_s": measured["ops_per_s"],
                "stall_ratio": measured["stall_ratio"],
                "ref_unit_us": measured["ref_unit_us"]}
    return metrics, absolute, rounds.attempted, rounds.failed


def run_one(args) -> int:
    pin_to_one_cpu()
    if args.setup_only:
        workload = WORKLOADS[args.workload]
        rounds = workload.launch(workload.inputs(args.seed), 0.0).rounds
        print(repr(rounds.first_timed - _PROCESS_START))
        return 0
    metrics, absolute, attempted, failed = end_to_end(
        args.workload, args.seed, args.seconds,
        0 if args.quick else SETUP_SAMPLES)
    print_metrics(args.workload, metrics)
    print_metrics(args.workload, absolute, note="(absolute: not gated)")
    print("DETAIL " + json.dumps({"workload": args.workload,
                                  "metrics": metrics, "absolute": absolute}))
    print(json.dumps({
        "correct": failed == 0, "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in metrics.items()}}))
    return 0 if failed == 0 else 1


# -- every workload, each in a fresh process ----------------------------------

def _child(workload: str, seed: int, seconds: float, setup_only: bool = False,
           quick: bool = False) -> str:
    cmd = [sys.executable, __file__, "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    cmd += ["--setup-only"] * setup_only + ["--quick"] * quick
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if done.returncode != 0 and not done.stdout.strip():
        raise SystemExit(f"{workload}: exited {done.returncode}\n{done.stderr}")
    return done.stdout


def run_all(args) -> int:
    runs, failed = [], 0
    for repeat in range(args.repeats):
        for name in WORKLOADS:
            lines = _child(name, args.seed, args.seconds,
                           quick=args.quick).strip().splitlines()
            print("\n".join(lines[:-2]), flush=True)
            detail = json.loads(lines[-2].removeprefix("DETAIL "))
            result = json.loads(lines[-1])
            runs.append({"workload": name, "trace": 0,
                         "metrics": detail["metrics"],
                         "absolute": detail["absolute"],
                         "attempted": result["attempted"],
                         "failed": result["failed"], "repeat": repeat})
            failed += result["failed"]
    if args.out:
        Path(args.out).write_text(json.dumps({
            "stamp": stamp(),
            "seed": args.seed, "seconds": args.seconds, "quick": args.quick,
            "runs": runs}, indent=1) + "\n")
    return 1 if failed else 0


def compare_files(a_path: str, b_path: str) -> int:
    """``bench_layers/compare.py`` on two annex files: its judging and its
    report, with the annex's workloads in place of ``BENCHMARK.json``'s."""
    compare.SPEC = {**compare.SPEC,
                    "workloads": [{"name": name} for name in WORKLOADS]}
    return compare.main([a_path, b_path])


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        ap = argparse.ArgumentParser(prog="annex.py compare")
        ap.add_argument("a", metavar="A.json")
        ap.add_argument("b", metavar="B.json")
        args = ap.parse_args(argv[1:])
        return compare_files(args.a, args.b)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(WORKLOADS),
                    help="run this one workload here and end with the JSON "
                         "result line (default: all, a fresh process each)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--out", metavar="PATH",
                    help="write every run's metrics as JSON (all-workload mode)")
    ap.add_argument("--repeats", type=int, default=1)
    ap.add_argument("--quick", action="store_true",
                    help=f"smoke run: {QUICK_SECONDS} s per workload, set-up "
                         "timed once")
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.quick:
        args.seconds = QUICK_SECONDS
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
