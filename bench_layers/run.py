"""The benchmark command.

``python3 bench_layers/run.py`` runs every workload in a fresh process each,
checks every output and prints every end-to-end metric by name with its
unit, sample count and quartiles; ``--trace`` repeats the workloads with
spans on and prints the per-layer metrics.  With ``--workload NAME`` it runs
that one workload in this process and ends with the one-line JSON result the
driver reads (see ``README.md``).
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()  # before the heavy imports: set-up pays them

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

if __package__ in (None, ""):  # run as a script: make the package importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import bench_layers

SPEC = json.loads((bench_layers.ROOT / "BENCHMARK.json").read_text())
#: fresh processes timed from start to first timed operation, besides our own
SETUP_SAMPLES = 6
#: share of a traced run's budget spent re-running the workload with spans on
SPAN_SHARE = 0.25
QUICK_SECONDS = 0.4


def stamp() -> dict:
    """Where the numbers were taken; recorded in every output file."""
    import numpy

    return {
        "machine": platform.machine(), "platform": platform.platform(),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__,
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


# -- one workload, in this process -------------------------------------------

def _setup_only(name: str, seed: int) -> float:
    """Seconds from process start to the first timed operation."""
    from bench_layers.workloads import WORKLOADS

    workload = WORKLOADS[name]
    outcome = workload.launch(workload.inputs(seed), 0.0)
    return outcome.rounds.first_timed - _PROCESS_START


def _fresh_setups(name: str, seed: int, samples: int) -> list[float]:
    """Set the workload up in ``samples`` fresh processes, one after another."""
    out = []
    for _ in range(samples):
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--setup-only"], check=True, capture_output=True, text=True,
            timeout=120)
        out.append(float(done.stdout.strip().splitlines()[-1]))
    return out


def _peak_rss_mib(backend: str) -> float:
    """``ru_maxrss`` of this process, plus its largest child on processes."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if backend == "process":
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def end_to_end(name: str, seed: int, seconds: float, setup_samples: int
               ) -> tuple[dict, dict, int, int]:
    """Measure one workload untraced.

    Returns ``(metrics, absolute, attempted, failed)``: the gated metrics,
    and the wall-clock figures they were computed from, for information.
    """
    from bench_layers.harness import path_metrics, scalar, summary
    from bench_layers.workloads import WORKLOADS

    workload = WORKLOADS[name]
    outcome = workload.run(seed, seconds)
    rounds = outcome.rounds
    rss = _peak_rss_mib(workload.backend)  # before the set-up children run
    setups = [rounds.first_timed - _PROCESS_START]
    setups += _fresh_setups(name, seed, setup_samples)
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


def per_layer(name: str, seed: int, seconds: float, trace_out
              ) -> tuple[dict, int, int]:
    """Measure one workload traced, then every layer on its own."""
    from bench_layers import layers
    from bench_layers.spans import write_chrome_trace
    from bench_layers.workloads import WORKLOADS

    workload = WORKLOADS[name]
    outcome = workload.run(seed, seconds * SPAN_SHARE, traced=True)
    metrics = layers.span_metrics(outcome)
    suite, attempted, failed = layers.suite(seed, seconds * (1 - SPAN_SHARE))
    metrics.update(suite)
    if trace_out:
        write_chrome_trace(outcome.spans, trace_out, name)
    return (metrics, outcome.rounds.attempted + attempted,
            outcome.rounds.failed + failed)


def pin_to_one_cpu() -> None:
    """Run on one CPU: this process and every thread and process it starts.

    Rank threads take turns on the GIL and a ping-pong has one side active
    at a time, so a second CPU adds little work but a scheduler lottery: on
    this 2-CPU sandbox the same binary reads 2.6x apart from one invocation
    to the next when its threads happen to be spread over both (README,
    "One CPU").
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_one(args) -> int:
    pin_to_one_cpu()
    bench_layers.use_checkout_sources()
    if args.setup_only:
        print(repr(_setup_only(args.workload, args.seed)))
        return 0
    absolute: dict = {}
    if args.trace:
        wanted = SPEC["per_layer"]
        metrics, attempted, failed = per_layer(
            args.workload, args.seed, args.seconds, args.trace_out)
    else:
        wanted = SPEC["end_to_end"]
        metrics, absolute, attempted, failed = end_to_end(
            args.workload, args.seed, args.seconds,
            0 if args.quick else SETUP_SAMPLES)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"{args.workload}: metrics not measured: {missing}")
    metrics = {m["name"]: metrics[m["name"]] for m in wanted}
    print_metrics(args.workload, metrics)
    print_metrics(args.workload, absolute, note="(absolute: not gated)")
    attempted, failed = int(attempted), int(failed)
    correct = failed == 0
    print("DETAIL " + json.dumps({"workload": args.workload,
                                  "metrics": metrics, "absolute": absolute}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in metrics.items()}}))
    return 0 if correct else 1


def print_metrics(workload: str, metrics: dict, note: str = "") -> None:
    for name, m in metrics.items():
        spread = (f"n={m['n']:<5} q1={m['q1']:.6g} q3={m['q3']:.6g}"
                  if "q1" in m else f"n={m['n']}")
        print(f"{workload:<20} {name:<44} {m['value']:>14.6g} "
              f"{m['unit']:<6} {spread} {note}".rstrip())


# -- every workload, each in a fresh process ---------------------------------

def _child(workload: str, args, trace: int) -> dict:
    cmd = [sys.executable, __file__, "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace)]
    if args.quick:
        cmd.append("--quick")
    if trace and args.trace_out:
        cmd += ["--trace-out", f"{args.trace_out}.{workload}.json"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    sys.stdout.write("\n".join(lines[:-2]) + "\n")
    sys.stdout.flush()
    if done.returncode != 0 and not lines:
        raise SystemExit(f"{workload}: exited {done.returncode}\n{done.stderr}")
    detail = json.loads(lines[-2].removeprefix("DETAIL "))
    result = json.loads(lines[-1])
    return {"workload": workload, "trace": trace, "metrics": detail["metrics"],
            "absolute": detail["absolute"],
            "attempted": result["attempted"], "failed": result["failed"]}


def run_all(args) -> int:
    runs, failed = [], 0
    for repeat in range(args.repeats):
        for spec in SPEC["workloads"]:
            # per-layer numbers are not compared across repeats: trace once
            for trace in ((0, 1) if args.trace and repeat == 0 else (0,)):
                run = _child(spec["name"], args, trace)
                run["repeat"] = repeat
                runs.append(run)
                failed += run["failed"]
                rate = run["failed"] / run["attempted"]
                print(f"{spec['name']:<20} {'fail_rate':<44} {rate:>14.6g} "
                      f"{'ratio':<6} n={run['attempted']}")
    if args.out:
        Path(args.out).write_text(json.dumps({
            "stamp": stamp(), "seed": args.seed, "seconds": args.seconds,
            "quick": args.quick, "runs": runs}, indent=1) + "\n")
    return 1 if failed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]],
                    help="run this one workload here and end with the JSON "
                         "result line (default: all, a fresh process each)")
    ap.add_argument("--seed", type=int, default=0,
                    help="seeds the input generator only")
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                    help="timed section per workload")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1), help="record spans, print per-layer "
                                         "metrics")
    ap.add_argument("--trace-out", metavar="PATH",
                    help="write the spans as Chrome-trace JSON")
    ap.add_argument("--out", metavar="PATH",
                    help="write every run's metrics as JSON (all-workload mode)")
    ap.add_argument("--repeats", type=int, default=1,
                    help="run the whole set this many times (for compare); "
                         "only the first is also traced")
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
