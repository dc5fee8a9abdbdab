"""Per-layer metrics: each layer's public functions, timed on their own.

``suite`` runs one small measurement per layer of the stack a call crosses
— named parameters → plan → encode → engine → algorithm → mailbox → backend,
and above them the IR, the apps and the service — and ``span_metrics`` turns
the spans of a traced workload run into per-operation self times.  Layer
names are module names.  Nothing here is gated; the numbers say *where* an
end-to-end metric came from.  Counts marked exact repeat bit for bit.

Budgets are shares of the ``--seconds`` a traced run was given; every
measurement takes at least ``MIN_SAMPLES`` samples however small its share.
"""

from __future__ import annotations

import copy
import pickle
import statistics
import threading
from collections import deque
from time import perf_counter
from typing import Callable

import numpy as np

from bench_layers.harness import path_metrics, quartiles, scalar, summary
from bench_layers.spans import (
    SpanRecorder, TracedCommunicator, TracedRawComm, self_seconds_by_layer)
from bench_layers.workloads import (
    WORKLOADS, Outcome, Workload, direct_jobs)
from repro.apps.graphs import bfs, generate_gnm
from repro.apps.graphs.bfs import UNDEFINED
from repro.apps.ir_demo import sample_sort_epoch
from repro.apps.sorting import sort_checked
from repro.core import (
    SPECS, Communicator, PlanCache, as_serialized, destination, encode_send,
    op, recv_counts, send_buf, send_counts, send_recv_buf, source)
from repro.core.plans import compile_plan
from repro.core.types import decode_recv
from repro.mpi import (
    MAX, SUM, WORLD_ID, CollectiveEngine, call_delta, run_mpi, snapshot)
from repro.mpi.datatypes import payload_nbytes
from repro.mpi.ir.passes import PassManager
from repro.mpi.p2p import Envelope, Mailbox
from repro.service import Cluster, ClusterSaturated

MIN_SAMPLES = 3
#: the suite's budget is split into this many units; see ``suite``
UNITS = 75.0

ALGORITHMS = {
    "allreduce": ("recursive_doubling", "reduce_bcast", "ring"),
    "bcast": ("binomial", "linear", "scatter_allgather"),
    "allgather": ("bruck", "ring", "gather_bcast"),
    "alltoall": ("pairwise", "spread"),
}
SORT_BINDINGS = {"mpi": "MPI", "kamping": "KaMPIng", "boost": "Boost.MPI",
                 "rwth": "RWTH-MPI", "mpl": "MPL"}


def per_call(fn: Callable[[], object], budget: float, calls: int = 1,
             number: int = 200) -> dict:
    """Median microseconds per call of ``fn`` (which makes ``calls`` calls)."""
    fn()
    samples = []
    deadline = perf_counter() + budget
    while len(samples) < MIN_SAMPLES or perf_counter() < deadline:
        t0 = perf_counter()
        for _ in range(number):
            fn()
        samples.append((perf_counter() - t0) / (number * calls))
    return summary(samples, "us", 1e6)


def repeated(fn: Callable[[], float], budget: float) -> list[float]:
    """Samples of ``fn()`` (which returns seconds) until the budget is spent."""
    samples = []
    deadline = perf_counter() + budget
    while len(samples) < MIN_SAMPLES or perf_counter() < deadline:
        samples.append(fn())
    return samples


def count(value: float) -> dict:
    return scalar(value, "count")


# -- repro.core --------------------------------------------------------------

def core_functions(u: float) -> dict:
    v, c = np.arange(8, dtype=np.int64), [8]
    a64k = np.arange(8192, dtype=np.int64)
    a8m = np.arange(1 << 20, dtype=np.int64)
    obj = [(i, i * 0.5) for i in range(1000)]
    p1, p2, p3, p4 = send_buf(v), recv_counts(c), op(SUM), send_recv_buf(v)
    spec, call = SPECS["allgatherv"], (send_buf(v), recv_counts(c))
    warm, off = PlanCache(), PlanCache(enabled=False)
    wire = encode_send(a64k)
    big = per_call(lambda: encode_send(a8m), u, number=50)
    return {
        "core.named_params.construct_us": per_call(
            lambda: (send_buf(v), recv_counts(c), op(SUM), send_recv_buf(v)),
            u, calls=4),
        "core.named_params.signature_us": per_call(
            lambda: (p1.signature(), p2.signature(), p3.signature(),
                     p4.signature()), u, calls=4),
        "core.plans.lookup_hit_us": per_call(lambda: warm.lookup(spec, call), u),
        "core.plans.lookup_off_us": per_call(lambda: off.lookup(spec, call), u),
        "core.plans.compile_us": per_call(lambda: compile_plan(spec, call), u),
        "core.types.encode_64B_us": per_call(lambda: encode_send(v), u),
        "core.types.encode_64KiB_us": per_call(lambda: encode_send(a64k), u),
        "core.types.encode_8MiB_MBps": scalar(
            a8m.nbytes / big["value"], "MB/s"),  # bytes per microsecond
        "core.types.decode_64KiB_us": per_call(
            lambda: decode_recv(wire.decode(wire.payload), None), u),
        "core.types.encode_object_us": per_call(
            lambda: encode_send(as_serialized(obj)), u, number=20),
    }


def _bindings_main(raw, budget: float):
    """p=1: the wrapped calls of bind_p1 under spans, one op at a time."""
    recorder = SpanRecorder()
    comm = TracedCommunicator(TracedRawComm(raw, recorder))
    v, c = np.arange(8, dtype=np.int64), [8]
    calls = {
        "allgatherv": lambda: comm.allgatherv(send_buf(v), recv_counts(c)),
        "allreduce": lambda: comm.allreduce(send_buf(v), op(SUM)),
        "bcast": lambda: comm.bcast(send_recv_buf(v)),
        "alltoallv": lambda: comm.alltoallv(send_buf(v), send_counts(c),
                                            recv_counts(c)),
        "alltoallv_inferred": lambda: comm.alltoallv(send_buf(v),
                                                     send_counts(c)),
        # the bindings have no sendrecv: a send to self and its receive
        "sendrecv": lambda: (comm.send(send_buf(v), destination(0)),
                             comm.recv(source(0))),
    }
    self_us = {}
    for name, call in calls.items():
        call()
        first = len(recorder.spans)
        deadline = perf_counter() + budget
        n = 0
        while n < 50 or perf_counter() < deadline:
            call()
            n += 1
        per_op = sum(s.own for s in recorder.spans[first:]
                     if s.name.startswith("core.")) / n
        self_us[name] = per_op * 1e6

    plain = Communicator(raw, PlanCache())
    before = snapshot(raw)
    for _ in range(100):  # the bind_p1 mix
        plain.allgatherv(send_buf(v), recv_counts(c))
        plain.allreduce(send_buf(v), op(SUM))
        plain.bcast(send_recv_buf(v))
        plain.alltoallv(send_buf(v), send_counts(c))
    raw_calls = sum(call_delta(raw, before).values())
    cache = plain._plans
    return self_us, raw_calls / 400, cache.compilations, cache.hits


def core_communicator(u: float) -> dict:
    self_us, raw_per_op, compilations, hits = run_mpi(
        _bindings_main, 1, args=(u,)).values[0]
    out = {f"core.communicator.{name}.self_us": scalar(value, "us")
           for name, value in self_us.items()}
    out["core.communicator.raw_calls_per_op"] = count(raw_per_op)  # exact
    out["core.plans.compilations"] = count(compilations)  # exact
    out["core.plans.hit_ratio"] = scalar(hits / (hits + compilations), "ratio")
    return out


# -- repro.mpi ---------------------------------------------------------------

def mpi_engine(u: float) -> dict:
    tuned = CollectiveEngine(env={})
    tuned.tune(WORLD_ID, "allreduce",
               rules=[(1024, "recursive_doubling"), (None, "ring")])
    engines = {"default": CollectiveEngine(policy="default", env={}),
               "costmodel": CollectiveEngine(policy="costmodel", env={}),
               "tuned": tuned}
    return {
        f"mpi.engine.resolve_{name}_us": per_call(
            lambda e=engine: e.resolve("allreduce", p=4, nbytes=65536,
                                       comm_id=WORLD_ID), u)
        for name, engine in engines.items()}


def _collective(raw, coll: str, width: int):
    data = np.arange(width, dtype=np.int64) + raw.rank
    if coll == "allreduce":
        return raw.allreduce(data, SUM)
    if coll == "bcast":
        return raw.bcast(data if raw.rank == 0 else None, 0)
    if coll == "allgather":
        return raw.allgather(data)
    return raw.alltoall([data] * raw.size)


def _algorithm_main(raw, coll: str, reps: int):
    """``(start, end)`` of every call on *this* rank, for two payload sizes."""
    times = {}
    for label, width in (("64B", 8), ("64KiB", 8192)):
        calls = []
        for _ in range(reps):
            raw.barrier()
            t0 = perf_counter()
            _collective(raw, coll, width)
            calls.append((t0, perf_counter()))
        times[label] = calls
    return times


def _one_collective(raw, coll: str):
    _collective(raw, coll, 8)


def mpi_algorithms(u: float) -> dict:
    """Each registered algorithm forced at p=4: wall time at two payload
    sizes and the point-to-point messages one call deposits (exact)."""
    out = {}
    reps = max(MIN_SAMPLES, int(u / 0.0006 / 2))
    for coll, names in ALGORITHMS.items():
        for algo in names:
            forced = CollectiveEngine(overrides={coll: algo}, env={})
            ranks = run_mpi(_algorithm_main, 4, args=(coll, reps),
                            engine=forced).values
            for label in ranks[0]:
                # a collective ends with its slowest rank (a bcast root
                # returns at once): from the last rank in to the last rank
                # out, on the clock the rank threads share
                spans = [max(e for _, e in call) - max(s for s, _ in call)
                         for call in zip(*(times[label] for times in ranks))]
                out[f"mpi.algorithms.{coll}.{algo}.{label}_us"] = summary(
                    spans, "us", 1e6)
            deposits: list = []
            deposit = Mailbox.deposit

            def counting(mailbox, envelope, _deposit=deposit):
                deposits.append(None)
                _deposit(mailbox, envelope)

            Mailbox.deposit = counting  # class-wide, for one run only
            try:
                run_mpi(_one_collective, 4, args=(coll,), engine=forced)
            finally:
                Mailbox.deposit = deposit
            out[f"mpi.algorithms.{coll}.{algo}.p2p_msgs"] = count(len(deposits))
    return out


def _envelope(tag: int) -> Envelope:
    return Envelope(source=0, tag=tag, payload=None, nbytes=0,
                    arrival_time=0.0)


def mpi_p2p(u: float) -> dict:
    box = Mailbox()

    def unexpected():  # message first: the receive finds it queued
        box.deposit(_envelope(5))
        box.wait(box.post(0, 5, 0.0))

    def posted():  # receive first: the message finds it posted
        pending = box.post(0, 5, 0.0)
        box.deposit(_envelope(5))
        box.wait(pending)

    deep = Mailbox()
    for _ in range(64):
        deep.deposit(_envelope(9))  # never matched: 64 envelopes to walk past

    def depth64():
        deep.deposit(_envelope(5))
        deep.wait(deep.post(0, 5, 0.0))

    here, there = Mailbox(), Mailbox()
    rounds = 200

    def echo(trips: int):
        for _ in range(trips):
            there.wait(there.post(0, 5, 0.0))
            here.deposit(_envelope(5))

    def wakeups() -> float:
        peer = threading.Thread(target=echo, args=(rounds,))
        peer.start()
        t0 = perf_counter()
        for _ in range(rounds):
            there.deposit(_envelope(5))
            here.wait(here.post(0, 5, 0.0))
        elapsed = perf_counter() - t0
        peer.join()
        return elapsed / (2 * rounds)  # one wake-up each way per round

    return {
        "mpi.p2p.match_unexpected_us": per_call(unexpected, u),
        "mpi.p2p.match_posted_us": per_call(posted, u),
        "mpi.p2p.match_depth64_us": per_call(depth64, u),
        "mpi.p2p.wakeup_us": summary(repeated(wakeups, 2 * u), "us", 1e6),
    }


def _self_sendrecv(raw, budget: float):
    v = np.arange(8, dtype=np.int64)
    return per_call(lambda: (raw.send(v, 0), raw.recv(0)), budget)


def mpi_context_and_datatypes(u: float) -> dict:
    a64k = np.arange(8192, dtype=np.int64)
    obj = [(i, i * 0.5) for i in range(1000)]
    return {
        "mpi.context.self_sendrecv_us": run_mpi(
            _self_sendrecv, 1, args=(u,)).values[0],
        "mpi.datatypes.payload_nbytes_ndarray_us": per_call(
            lambda: payload_nbytes(a64k), u),
        "mpi.datatypes.payload_nbytes_object_us": per_call(
            lambda: payload_nbytes(obj), u, number=10),
    }


def _noop(raw):
    return None


def _launch(p: int, backend: str) -> float:
    t0 = perf_counter()
    run_mpi(_noop, p, backend=backend)
    return perf_counter() - t0


def _pingpong(raw, sizes):
    """Raw ping-pong: per-round-trip seconds on rank 0 for each payload."""
    times = {}
    for label, width, trips in sizes:
        data = np.arange(width, dtype=np.int64)
        samples = []
        for _ in range(trips):
            raw.barrier()
            t0 = perf_counter()
            if raw.rank == 0:
                raw.send(data, 1)
                raw.recv(1)
            else:
                raw.send(raw.recv(0)[0], 0)
            samples.append(perf_counter() - t0)
        times[label] = samples
    return times


def _mixed(raw):
    """bench_overhead's backend workload: 20 x (ring send/recv + allreduce)."""
    v = np.arange(256, dtype=np.int64) + raw.rank
    right, left = (raw.rank + 1) % raw.size, (raw.rank - 1) % raw.size
    acc = 0
    for _ in range(20):
        raw.send(v, right, tag=1)
        acc += int(raw.allreduce(int(raw.recv(left, 1)[0][0]), SUM))
    return acc


def mpi_backends(u: float) -> dict:
    out = {
        "mpi.backends.thread.launch_p4_s": summary(
            repeated(lambda: _launch(4, "thread"), u), "s"),
        "mpi.backends.process.launch_p2_s": summary(
            repeated(lambda: _launch(2, "process"), u), "s"),
    }
    rtt = {}
    for backend, per_trip in (("thread", (1e-4, 1.5e-4, 2e-3)),
                              ("process", (2.5e-4, 4.5e-4, 5e-2))):
        sizes = [(label, width, max(MIN_SAMPLES, int(u / cost)))
                 for (label, width), cost in zip(
                     (("8B", 1), ("64KiB", 8192), ("8MiB", 1 << 20)), per_trip)]
        times = run_mpi(_pingpong, 2, args=(sizes,), backend=backend).values[0]
        for label, samples in times.items():
            rtt[backend, label] = summary(samples, "us", 1e6)
            out[f"mpi.backends.{backend}.rtt_{label}_us"] = rtt[backend, label]
    a8m = np.arange(1 << 20, dtype=np.int64)
    both_ways = per_call(lambda: pickle.loads(pickle.dumps(a8m, protocol=5)),
                         u, number=2)
    # computed: a round trip pickles and unpickles the payload once each way
    out["mpi.backends.process.pickle_share_8MiB"] = scalar(
        2 * both_ways["value"] / rtt["process", "8MiB"]["value"], "ratio")
    wall = {b: quartiles(repeated(lambda b=b: _timed(
        lambda: run_mpi(_mixed, 4, backend=b)), u))[1]
            for b in ("thread", "process")}
    out["mpi.backends.process_thread_mixed_ratio"] = scalar(
        wall["process"] / wall["thread"], "ratio")
    return out


def _timed(fn: Callable[[], object]) -> float:
    t0 = perf_counter()
    fn()
    return perf_counter() - t0


def _hand_batches(raw, workload: Workload, inputs: dict, batches: int):
    _, hand = workload.sides(raw, inputs)
    hand.run()
    samples = []
    for _ in range(batches):
        raw.barrier()
        samples.append(hand.run()[0])
    return samples


def mpi_tracing(u: float, seed: int) -> dict:
    """The coll_thread_p4 mix, hand-written, with the runtime's tracer on/off."""
    workload = WORKLOADS["coll_thread_p4"]
    inputs = workload.inputs(seed)
    batches = max(MIN_SAMPLES, int(u / 0.008))
    median = {trace: quartiles(run_mpi(
        _hand_batches, 4, args=(workload, inputs, batches),
        trace=trace).values[0])[1] for trace in (False, True)}
    return {"mpi.tracing.on_off_ratio": scalar(median[True] / median[False],
                                               "ratio")}


def mpi_ir(u: float, seed: int) -> dict:
    """Sample sort at p=4: plain, recorded, and optimised + replayed."""
    def run(**kw):
        return run_mpi(sample_sort_epoch, 4, args=(seed, 4096),
                       engine=CollectiveEngine(env={}), **kw)

    plain = quartiles(repeated(lambda: _timed(run), u))[1]
    record = quartiles(repeated(lambda: _timed(lambda: run(ir="record")), u))[1]
    replay = quartiles(repeated(lambda: _timed(lambda: run(ir="optimize")),
                                2 * u))[1]
    report = run(ir="optimize").ir
    epoch = run(ir="record").ir.epoch
    optimize = repeated(lambda: _timed(
        lambda: PassManager().run(copy.deepcopy(epoch))), u)
    return {
        "mpi.ir.record_ratio": scalar(record / plain, "ratio"),
        "mpi.ir.replay_ratio": scalar(replay / plain, "ratio"),
        "mpi.ir.optimize_ms": summary(optimize, "ms", 1e3),
        "mpi.ir.ops_recorded": count(report.epoch.total_raw_ops()),  # exact
        "mpi.ir.ops_optimized": count(report.optimized.total_raw_ops()),
    }


# -- repro.apps --------------------------------------------------------------

def _sorts_main(raw, keys: np.ndarray, reps: int):
    data = keys[raw.rank]
    times = {}
    for name, binding in SORT_BINDINGS.items():
        samples = []
        for _ in range(reps):
            raw.barrier()
            t0 = perf_counter()
            block = sort_checked(raw, data, binding)
            samples.append(perf_counter() - t0)
        times[name] = samples
    return times, len(block)


def _bfs_main(raw, seed: int, reps: int):
    comm = Communicator(raw)
    graph = generate_gnm(256, 1024, raw.size, raw.rank, seed=seed + 1)
    times, dist = {}, {}
    for strategy in ("kamping", "mpi"):
        samples = []
        for _ in range(reps):
            raw.barrier()
            t0 = perf_counter()
            dist[strategy] = bfs(graph, 0, comm, strategy=strategy)
            samples.append(perf_counter() - t0)
        times[strategy] = samples
    reached = dist["mpi"][dist["mpi"] != UNDEFINED]
    levels = raw.allreduce(int(reached.max()) + 1 if len(reached) else 0, MAX)
    same = bool(np.array_equal(dist["kamping"], dist["mpi"]))
    return times, levels, same


def apps(u: float, seed: int) -> tuple[dict, int, int]:
    workload = WORKLOADS["sort_thread_p4"]
    keys = workload.inputs(seed)["keys"]
    reps = max(MIN_SAMPLES, int(u / 0.02))
    times, block = run_mpi(_sorts_main, 4, args=(keys, reps)).values[0]
    out = {f"apps.sorting.{name}_ms": summary(samples, "ms", 1e3)
           for name, samples in times.items()}
    alone = quartiles(repeated(lambda: _timed(
        lambda: np.sort(keys[0][:block], kind="stable")), u))[1]
    # computed: one rank's final local sort, alone, over the whole sort
    out["apps.sorting.local_sort_share"] = scalar(
        alone * 1e3 / out["apps.sorting.kamping_ms"]["value"], "ratio")
    results = run_mpi(_bfs_main, 4, args=(seed, max(MIN_SAMPLES, int(u / 0.03)))
                      ).values
    times, levels, _ = results[0]
    out["apps.graphs.bfs_kamping_ms"] = summary(times["kamping"], "ms", 1e3)
    out["apps.graphs.bfs_mpi_ms"] = summary(times["mpi"], "ms", 1e3)
    out["apps.graphs.bfs_levels"] = count(levels)  # exact
    failed = sum(not same for _, _, same in results)
    return out, len(results), failed


# -- repro.service -----------------------------------------------------------

def _stream(cluster, jobs, expected, window_size: int = 16):
    """Drain ``jobs`` with a closed window; per-job submit and settle times."""
    window: deque = deque()
    submit_s, settle_s, refused, wrong = [], [], 0, 0

    def settle():
        nonlocal wrong
        t_submit, want, handle = window.popleft()
        wrong += handle.result(60) != want
        settle_s.append(perf_counter() - t_submit)

    t_start = perf_counter()
    for (kind, x), want in zip(jobs, expected):
        if len(window) == window_size:
            settle()
        t0 = perf_counter()
        try:
            handle = (cluster.submit_bcast(x) if kind == "bcast"
                      else cluster.submit_allreduce(range(x), op=SUM))
        except ClusterSaturated:
            refused += 1
            continue
        submit_s.append(perf_counter() - t0)
        window.append((t0, want, handle))
    while window:
        settle()
    return perf_counter() - t_start, submit_s, settle_s, refused, wrong


def service(u: float, seed: int) -> tuple[dict, int, int]:
    workload = WORKLOADS["service_p4"]
    inputs = workload.inputs(seed)
    jobs, expected = inputs["jobs"][:100], inputs["expected"][:100]
    rounds = max(1, int(u / 0.1))
    start_s, stop_s, submit_s, settle_s = [], [], [], []
    refused = wrong = 0
    for _ in range(MIN_SAMPLES):
        t0 = perf_counter()
        cluster = Cluster(4)
        start_s.append(perf_counter() - t0)
        try:
            for _ in range(rounds):
                _, sub, sett, ref, bad = _stream(cluster, jobs, expected)
                submit_s += sub
                settle_s += sett
                refused += ref
                wrong += bad
            stats = dict(cluster.stats)
        finally:
            t0 = perf_counter()
            cluster.shutdown()
            stop_s.append(perf_counter() - t0)
    with Cluster(4, batch_limit=1) as unbatched:
        elapsed, _, _, ref, bad = _stream(unbatched, jobs, expected)
    refused += ref
    wrong += bad
    direct = [run_mpi(direct_jobs, 4, args=(jobs,)).values[0][0] / len(jobs)
              for _ in range(MIN_SAMPLES)]
    settle_ms = sorted(s * 1e3 for s in settle_s)
    attempted = (MIN_SAMPLES * rounds + 1) * len(jobs)
    out = {
        "service.cluster.start_s": summary(start_s, "s"),
        "service.cluster.shutdown_s": summary(stop_s, "s"),
        "service.cluster.submit_us": summary(submit_s, "us", 1e6),
        "service.cluster.settle_p50_ms": scalar(
            settle_ms[len(settle_ms) // 2], "ms"),
        "service.cluster.settle_p99_ms": scalar(
            settle_ms[int(len(settle_ms) * 0.99)], "ms"),
        "service.cluster.direct_us": summary(direct, "us", 1e6),
        "service.cluster.rejected": count(refused),
        "service.cluster.unbatched_jobs_per_s": scalar(
            len(jobs) / elapsed, "1/s"),
        "service.batching.jobs_per_group": scalar(
            stats["jobs_done"] / stats["groups"], "ratio"),
    }
    return out, attempted, refused + wrong


# -- the whole suite ---------------------------------------------------------

def suite(seed: int, seconds: float) -> tuple[dict, int, int]:
    """Every layer's metrics; ``(metrics, attempted, failed)``.

    ``seconds`` is split into ``UNITS`` units and each group is handed a few
    of them per measurement, so the groups' shares are fixed whatever the
    budget.
    """
    u = seconds / UNITS
    out: dict = {}
    attempted = failed = 0
    out.update(core_functions(u / 2))
    out.update(core_communicator(u / 2))
    out.update(mpi_engine(u / 2))
    out.update(mpi_algorithms(u / 2))
    out.update(mpi_p2p(u / 2))
    out.update(mpi_context_and_datatypes(u / 2))
    out.update(mpi_backends(u))
    out.update(mpi_tracing(2 * u, seed))
    out.update(mpi_ir(u, seed))
    for group in (apps, service):
        metrics, tried, bad = group(2 * u, seed)
        out.update(metrics)
        attempted += tried
        failed += bad
    return out, attempted, failed


# -- spans of a traced workload run ------------------------------------------

def span_metrics(outcome: Outcome) -> dict:
    """Per-operation self times from the spans of one traced run.

    Side ``a`` of a traced run is the wrapped path with spans on and ``b``
    the same path with spans off, so their ratio is what tracing costs and
    ``b`` gives the wall-clock figures of the untraced path.  The spans are
    those of the timed batches (warm-up is dropped at the source), divided
    by the operations those batches did.  ``trace.unspanned_us`` is time
    inside a batch but outside every span: parameter construction and the
    loop for the binding workloads, numpy for the sort.
    """
    rounds = outcome.rounds
    ops = rounds.a_ops * len(rounds.a_s)
    timed = [s for s in outcome.spans if s.rank == 0]
    layers = self_seconds_by_layer(timed)
    covered = sum(s.end - s.start for s in timed if s.parent is None)
    total = sum(rounds.a_s)

    def per_op(seconds: float) -> dict:
        return scalar(seconds / ops * 1e6, "us")

    measured = path_metrics(rounds)
    core = layers.get("core.communicator", 0.0)
    return {
        "trace_overhead_ratio": measured["a_b_ratio"],
        "trace.core_self_us": per_op(core),
        "trace.mpi_us": per_op(layers.get("mpi.context", 0.0)),
        "trace.service_us": per_op(layers.get("service.cluster", 0.0)),
        "trace.unspanned_us": per_op(total - covered),
        "trace.core_self_share": scalar(core / total, "ratio"),
        "trace.raw_calls_per_op": count(  # exact
            sum(s.name.startswith("mpi.context.") for s in timed) / ops),
        "trace.spans_per_op": count(len(timed) / ops),  # exact
        "wall.op_us": measured["b_op_us"],
        "wall.ops_per_s": scalar(1e6 / measured["b_op_us"]["value"], "1/s"),
        "wall.stall_ratio": scalar(statistics.fmean(rounds.b_s)
                                   / statistics.median(rounds.b_s), "ratio"),
        "wall.ref_unit_us": measured["ref_unit_us"],
    }
