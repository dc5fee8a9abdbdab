"""The benchmark's workloads.

Each workload knows how to make its inputs from a seed, how to do its work
through the topmost layer ("wrapped") and as hand-written ``RawComm`` calls
("raw"), and how to check every result against a reference computed without
the runtime.  The batch loops are written out inline on purpose: at p=1 a
raw call costs about a microsecond, so one level of harness indirection per
operation would be measured as if it were the program.

Batch sizes (``MIXES``, ``ROUNDS``, …) are constants: a batch is the same
work on every commit, and the ``--seconds`` budget only decides how many
batches run.
"""

from __future__ import annotations

import pickle
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Optional

import numpy as np

from bench_layers.harness import (
    Rounds, Side, interpreter_reference, measure_on_ranks, measure_rounds)
from bench_layers.spans import (
    Span, SpanRecorder, TracedCommunicator, TracedRawComm, spanned)
from repro.apps.sorting.sample_sort import sample_sort_kamping, sample_sort_mpi
from repro.core import (
    Communicator, PlanCache, as_deserializable, as_serialized, destination,
    grow_only, op, recv_buf, recv_counts, recv_counts_out, recv_displs_out,
    resize_to_fit, root, send_buf, send_counts, send_recv_buf, source)
from repro.mpi import SUM, run_mpi
from repro.service import Cluster, ClusterSaturated


#: fresh launches (``run_mpi`` / ``Cluster``) a run's budget is split over.
#: How fast a launch runs is partly luck — where the kernel put its pages and
#: woke its threads: on this sandbox one p2p_process_p2 launch reads 253 us
#: and the next 474 us — so a run pools the batches of several launches
#: before taking medians instead of trusting one.
LAUNCHES = 10


@dataclass
class Outcome:
    """One measured run of one workload, before it is turned into metrics."""

    rounds: Rounds
    #: spans of the timed batches (traced runs only)
    spans: list[Span] = field(default_factory=list)

    def extend(self, later: "Outcome") -> None:
        """Pool a later launch's rounds and spans into this one."""
        self.rounds.extend(later.rounds)
        self.spans += later.spans


def _mismatches(results: Any, expected: np.ndarray) -> int:
    """How many rows of ``results`` differ from ``expected``."""
    got = np.asarray(results)
    if got.shape[1:] != expected.shape:
        return len(results)
    return int((got != expected).reshape(len(got), -1).any(axis=1).sum())


class Workload:
    """A named workload run by ``run_mpi`` on ``p`` ranks of ``backend``."""

    name = ""
    why = ""
    backend = "thread"
    p = 1

    def inputs(self, seed: int) -> dict:
        raise NotImplementedError

    def sides(self, raw, inputs: dict, wrap: Callable = Communicator
              ) -> tuple[Side, Side]:
        """Build ``(wrapped, hand_written)`` for this rank."""
        raise NotImplementedError

    def reference(self, inputs: dict) -> Callable[[], float]:
        """The yardstick ``op_ref_ratio`` divides by: seconds per unit of
        work that is bound by what the workload is bound by."""
        return interpreter_reference

    def launch(self, inputs: dict, seconds: float, traced: bool = False
               ) -> Outcome:
        """Start the ranks, warm up and measure for ``seconds``; ``traced``
        pairs the wrapped path with spans on against the same path with
        spans off instead of against the hand-written one."""
        result = run_mpi(_rank_main, self.p,
                         args=(self, inputs, seconds, traced),
                         backend=self.backend)
        rounds: Rounds = result.values[0][0]
        for other, _ in result.values[1:]:
            rounds.attempted += other.attempted
            rounds.failed += other.failed
        return Outcome(rounds, [s for _, spans in result.values for s in spans])

    def run(self, seed: int, seconds: float, traced: bool = False) -> Outcome:
        """Measure for ``seconds`` in all, over ``LAUNCHES`` fresh launches."""
        inputs = self.inputs(seed)
        outcome = self.launch(inputs, seconds / LAUNCHES, traced)
        for _ in range(LAUNCHES - 1):
            outcome.extend(self.launch(inputs, seconds / LAUNCHES, traced))
        return outcome


def _rank_main(raw, workload: Workload, inputs: dict, seconds: float,
               traced: bool) -> tuple[Rounds, list[Span]]:
    wrapped, hand = workload.sides(raw, inputs)
    reference = workload.reference(inputs)
    if not traced:
        return measure_on_ranks(raw, wrapped, hand, seconds, reference), []
    recorder = SpanRecorder()
    with_spans, _ = workload.sides(TracedRawComm(raw, recorder), inputs,
                                   TracedCommunicator)
    rounds = measure_on_ranks(raw, with_spans, wrapped, seconds, reference)
    return rounds, recorder.since(rounds.first_timed)


# -- bindings at p=1 ---------------------------------------------------------

class BindP1(Workload):
    name = "bind_p1"
    why = ("p=1 leaves engine, mailbox and backend idle, so the bindings "
           "(core.*) are nearly all of the time: where plan-cache work and a "
           "telemetry spine that is not free when off must show")
    MIXES = 250  # x 4 wrapped calls per mix
    #: a raw call is about a seventh of a wrapped one: the raw batch does
    #: this many times the mixes, so that both batches last milliseconds
    RAW_FACTOR = 4

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        return {"v": rng.integers(-2**40, 2**40, size=8, dtype=np.int64)}

    def sides(self, raw, inputs, wrap=Communicator):
        comm = wrap(raw)
        v, counts, n = inputs["v"], [8], self.MIXES
        b = v.copy()  # bcast is in place: its result is this buffer

        def wrapped():
            out = []
            keep = out.append
            t0 = perf_counter()
            for _ in range(n):
                keep((comm.allgatherv(send_buf(v), recv_counts(counts)),
                      comm.allreduce(send_buf(v), op(SUM)),
                      comm.bcast(send_recv_buf(b)) or b,
                      comm.alltoallv(send_buf(v), send_counts(counts))))
            return perf_counter() - t0, out

        def hand():
            out = []
            keep = out.append
            t0 = perf_counter()
            for _ in range(n * self.RAW_FACTOR):
                keep((raw.allgatherv(v, counts),
                      raw.allreduce(v, SUM),
                      raw.bcast(v, 0),
                      raw.alltoallv(v, counts, raw.alltoall(counts))))
            return perf_counter() - t0, out

        def check(out):  # at p=1 every one of the four results is v itself
            return _mismatches([r for mix in out for r in mix], v)

        return (Side(wrapped, check, 4 * n),
                Side(hand, check, 4 * n * self.RAW_FACTOR))


class BindColdP1(Workload):
    name = "bind_cold_p1"
    why = ("same layers as bind_p1 on the miss path: every call is the first "
           "of its signature on a fresh PlanCache, so compile cost and cache-"
           "key size show here and a pure hit-path change moves nothing")
    ITERATIONS = 20  # x 24 first calls per iteration
    SIGNATURES = 24
    RAW_FACTOR = 4  # as in bind_p1

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.integers(-2**40, 2**40, size=8, dtype=np.int64)
        return {"v": v, "scalar": int(rng.integers(1, 1000)),
                "obj": {"seed": seed, "xs": v.tolist()}}

    def sides(self, raw, inputs, wrap=Communicator):
        v, x, obj = inputs["v"], inputs["scalar"], inputs["obj"]
        lst, c, n = v.tolist(), [8], self.ITERATIONS
        caches: list[PlanCache] = []

        def buffers():
            """Caller-owned containers of the eight in-place variants."""
            return [np.empty(8, np.int64), [], np.empty(8, np.int64),
                    v.copy(), v.copy(), v.copy(), [], v.copy()]

        def wrapped():
            out = []
            t0 = perf_counter()
            for _ in range(n):
                cache = PlanCache()
                comm = wrap(raw, cache)
                bufs = a1, l1, a2, w1, b1, b2, l2, w2 = buffers()
                out.append(([
                    comm.allgatherv(send_buf(v), recv_counts(c)),
                    comm.allgatherv(send_buf(v)),
                    comm.allgatherv(send_buf(v), recv_counts_out()),
                    comm.allgatherv(send_buf(v), recv_counts(c),
                                    recv_displs_out()),
                    comm.allgatherv(send_buf(v), recv_buf(a1)),
                    comm.allgatherv(send_buf(v),
                                    recv_buf(l1, resize_to_fit)),
                    comm.allgatherv(send_buf(lst), recv_counts(c)),
                    comm.allgatherv(send_buf(v), recv_counts(c),
                                    recv_buf(a2, grow_only)),
                    comm.allreduce(send_buf(v), op(SUM)),
                    comm.allreduce(send_recv_buf(w1), op(SUM)),
                    comm.allreduce(send_buf(x), op(SUM)),
                    comm.allreduce(send_buf(lst), op(SUM)),
                    comm.bcast(send_recv_buf(b1)),
                    comm.bcast(send_recv_buf(b2), root(0)),
                    comm.bcast(send_recv_buf(x)),
                    comm.bcast(send_recv_buf(as_serialized(obj))),
                    comm.alltoallv(send_buf(v), send_counts(c)),
                    comm.alltoallv(send_buf(v), send_counts(c),
                                   recv_counts(c)),
                    comm.alltoallv(send_buf(v), send_counts(c),
                                   recv_counts_out()),
                    comm.alltoallv(send_buf(v), send_counts(c),
                                   recv_buf(l2, resize_to_fit)),
                    comm.allgather(send_buf(v)),
                    comm.allgather(send_recv_buf(w2)),
                    comm.reduce(send_buf(v), op(SUM)),
                    comm.scan(send_buf(v), op(SUM)),
                ], bufs))
                caches.append(cache)
            return perf_counter() - t0, out

        def hand():
            out = []
            loads, dumps = pickle.loads, pickle.dumps
            t0 = perf_counter()
            for _ in range(n * self.RAW_FACTOR):
                bufs = a1, l1, a2, w1, b1, b2, l2, w2 = buffers()
                counts = raw.allgather(8)
                rcounts = raw.alltoall(c)
                a1[:] = raw.allgatherv(v, raw.allgather(8))
                l1[:] = raw.allgatherv(v, raw.allgather(8)).tolist()
                a2[:] = raw.allgatherv(v, c)
                w1[:] = raw.allreduce(w1, SUM)
                b1[:] = raw.bcast(b1, 0)
                b2[:] = raw.bcast(b2, 0)
                l2[:] = raw.alltoallv(v, c, raw.alltoall(c)).tolist()
                w2[:] = np.concatenate(raw.allgather(w2))
                out.append(([
                    raw.allgatherv(v, c),
                    raw.allgatherv(v, raw.allgather(8)),
                    (raw.allgatherv(v, counts), counts),
                    (raw.allgatherv(v, c), [0]),  # p=1: the prefix sum is [0]
                    None,
                    None,
                    raw.allgatherv(np.asarray(lst), c).tolist(),
                    None,
                    raw.allreduce(v, SUM),
                    None,
                    raw.allreduce(x, SUM),
                    raw.allreduce(np.asarray(lst), SUM).tolist(),
                    None,
                    None,
                    raw.bcast(x, 0),
                    loads(raw.bcast(dumps(obj), 0)),
                    raw.alltoallv(v, c, raw.alltoall(c)),
                    raw.alltoallv(v, c, c),
                    (raw.alltoallv(v, c, rcounts), rcounts),
                    None,
                    np.concatenate(raw.allgather(v)),
                    None,
                    raw.reduce(v, SUM, 0),
                    raw.scan(v, SUM),
                ], bufs))
            return perf_counter() - t0, out

        in_place = (4, 5, 7, 9, 12, 13, 19, 21)  # value lands in the buffer
        with_extra = {2: [8], 3: [0], 18: [8]}   # (recv_buf, counts/displs)
        plain = {10: x, 14: x, 15: obj}          # everything else equals v

        def check_values(out) -> int:
            bad = 0
            for values, bufs in out:
                for i, buf in zip(in_place, bufs):
                    values[i] = buf
                for i, extra in with_extra.items():
                    buf, got = values[i]
                    values[i] = buf if list(got) == extra else None
                for i, got in enumerate(values):
                    if i in plain:
                        bad += got != plain[i]
                    else:
                        bad += not np.array_equal(np.asarray(got), v)
            return bad

        def check_wrapped(out) -> int:
            bad = check_values(out)
            for cache in caches:  # exact: every call compiled, none hit
                if (cache.compilations, cache.hits) != (self.SIGNATURES, 0):
                    bad += self.SIGNATURES
            caches.clear()
            return bad

        ops = self.SIGNATURES * n
        return (Side(wrapped, check_wrapped, ops),
                Side(hand, check_values, ops * self.RAW_FACTOR))


# -- collectives on threads --------------------------------------------------

class CollThreadP4(Workload):
    name = "coll_thread_p4"
    why = ("engine selection, algorithm schedules, mailboxes and thread "
           "wake-ups do most of the work and the bindings little: the bypass "
           "workload for binding changes, the primary one for schedule and "
           "mailbox work")
    p = 4
    MIXES = 4  # x 5 collectives per mix

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        draw = lambda n: rng.integers(-2**30, 2**30, size=n, dtype=np.int64)
        return {"one": draw(1), "big": draw(8192), "bc": draw(8),
                "ag": draw(8), "a2a": draw(128)}

    def sides(self, raw, inputs, wrap=Communicator):
        comm = wrap(raw)
        p, r, n = raw.size, raw.rank, self.MIXES
        one, big = inputs["one"] + r, inputs["big"] + r
        bc = inputs["bc"].copy()  # in place: non-roots receive into it
        ag = inputs["ag"] + r
        a2a = np.concatenate([inputs["a2a"] + (r * p + j) for j in range(p)])
        ag_counts, a2a_counts = [8] * p, [128] * p
        tri = p * (p - 1) // 2
        expected = (
            p * inputs["one"] + tri, p * inputs["big"] + tri, inputs["bc"],
            np.concatenate([inputs["ag"] + j for j in range(p)]),
            np.concatenate([inputs["a2a"] + (j * p + r) for j in range(p)]),
        )

        def wrapped():
            out = []
            keep = out.append
            if r != 0:
                bc[:] = 0  # so a bcast that delivers nothing is a mismatch
            t0 = perf_counter()
            for _ in range(n):
                keep((comm.allreduce(send_buf(one), op(SUM)),
                      comm.allreduce(send_buf(big), op(SUM)),
                      comm.bcast(send_recv_buf(bc)) or bc,
                      comm.allgatherv(send_buf(ag), recv_counts(ag_counts)),
                      comm.alltoallv(send_buf(a2a), send_counts(a2a_counts))))
            return perf_counter() - t0, out

        def hand():
            out = []
            keep = out.append
            t0 = perf_counter()
            for _ in range(n):
                keep((raw.allreduce(one, SUM),
                      raw.allreduce(big, SUM),
                      raw.bcast(bc if r == 0 else None, 0),
                      raw.allgatherv(ag, ag_counts),
                      raw.alltoallv(a2a, a2a_counts,
                                    raw.alltoall(a2a_counts))))
            return perf_counter() - t0, out

        def check(out):
            return sum(_mismatches([mix[i] for mix in out], expected[i])
                       for i in range(5))

        return Side(wrapped, check, 5 * n), Side(hand, check, 5 * n)


# -- point to point ----------------------------------------------------------

class P2PThreadP2(Workload):
    name = "p2p_thread_p2"
    why = ("an 8 B ping-pong on threads is mailbox matching plus one event "
           "wake-up each way and nothing is serialised: the control for "
           "p2p_process_p2 and the target of thread ping-pong latency work")
    p = 2
    ROUNDS = 50  # round trips per batch

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        return {"base": int(rng.integers(0, 2**40))}

    def sides(self, raw, inputs, wrap=Communicator):
        comm = wrap(raw)
        n, base = self.ROUNDS, inputs["base"]
        v = np.zeros(1, np.int64)
        expected = (base + np.arange(n, dtype=np.int64)).reshape(n, 1)

        if raw.rank == 0:
            def wrapped():
                out = []
                t0 = perf_counter()
                for i in range(n):
                    v[0] = base + i  # a stale or repeated echo is a mismatch
                    comm.send(send_buf(v), destination(1))
                    out.append(comm.recv(source(1)))
                return perf_counter() - t0, out

            def hand():
                out = []
                t0 = perf_counter()
                for i in range(n):
                    v[0] = base + i
                    raw.send(v, 1)
                    out.append(raw.recv(1)[0])
                return perf_counter() - t0, out
        else:
            def wrapped():
                out = []
                t0 = perf_counter()
                for _ in range(n):
                    got = comm.recv(source(0))
                    comm.send(send_buf(got), destination(0))
                    out.append(got)
                return perf_counter() - t0, out

            def hand():
                out = []
                t0 = perf_counter()
                for _ in range(n):
                    got = raw.recv(0)[0]
                    raw.send(got, 0)
                    out.append(got)
                return perf_counter() - t0, out

        def check(out):
            return int((np.asarray(out) != expected).any(axis=1).sum())

        return Side(wrapped, check, n), Side(hand, check, n)


class P2PProcessP2(P2PThreadP2):
    name = "p2p_process_p2"
    why = ("the same 8 B ping-pong between two OS processes: pipes, the pump "
           "thread and one pickle per message dominate; binding changes "
           "predict no movement")
    backend = "process"


class P2PBulkProcessP2(Workload):
    name = "p2p_bulk_process_p2"
    why = ("64 KiB and 8 MiB ndarrays and a 1000-tuple object between two "
           "processes: pickle and pipe copies dominate, so only here can "
           "'stop pickling buffers' show, beside objects it must not tax")
    p = 2
    backend = "process"
    #: round trips of each payload class per batch; the 8 MiB trip is about
    #: half of a batch's time, the other two a quarter each
    MIX = (("64KiB", 48), ("object", 24), ("8MiB", 1))

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        floats = rng.random(1000).tolist()
        return {
            "64KiB": rng.integers(0, 2**40, size=8192, dtype=np.int64),
            "8MiB": rng.integers(0, 2**40, size=1 << 20, dtype=np.int64),
            "object": list(enumerate(floats)),
        }

    def sides(self, raw, inputs, wrap=Communicator):
        comm = wrap(raw)
        arrays = [(inputs[name], count) for name, count in self.MIX
                  if name != "object"]
        obj = inputs["object"]
        obj_trips = dict(self.MIX)["object"]
        ops = sum(count for _, count in self.MIX)
        loads, dumps = pickle.loads, pickle.dumps
        me = raw.rank

        def wrapped():
            out = []
            t0 = perf_counter()
            for data, count in arrays:
                for i in range(count):
                    if me == 0:
                        data[0] = i
                        comm.send(send_buf(data), destination(1))
                        out.append(comm.recv(source(1)))
                    else:
                        comm.send(send_buf(comm.recv(source(0))),
                                  destination(0))
            for _ in range(obj_trips):
                if me == 0:
                    comm.send(send_buf(as_serialized(obj)), destination(1))
                    out.append(comm.recv(source(1),
                                         recv_buf(as_deserializable())))
                else:
                    got = comm.recv(source(0), recv_buf(as_deserializable()))
                    comm.send(send_buf(as_serialized(got)), destination(0))
            return perf_counter() - t0, out

        def hand():
            out = []
            t0 = perf_counter()
            for data, count in arrays:
                for i in range(count):
                    if me == 0:
                        data[0] = i
                        raw.send(data, 1)
                        out.append(raw.recv(1)[0])
                    else:
                        raw.send(raw.recv(0)[0], 0)
            for _ in range(obj_trips):
                if me == 0:
                    raw.send(dumps(obj), 1)
                    out.append(loads(raw.recv(1)[0]))
                else:
                    raw.send(dumps(loads(raw.recv(0)[0])), 0)
            return perf_counter() - t0, out

        def check(out):
            if me != 0:
                return 0
            bad, echoes = 0, iter(out)
            for data, count in arrays:
                for i in range(count):
                    got = next(echoes)
                    bad += not (got[0] == i and got.shape == data.shape
                                and np.array_equal(got[1:], data[1:]))
            return bad + sum(next(echoes) != obj for _ in range(obj_trips))

        return Side(wrapped, check, ops), Side(hand, check, ops)


# -- an application ----------------------------------------------------------

class SortThreadP4(Workload):
    name = "sort_thread_p4"
    why = ("time to solution of the paper's Fig. 8 sample sort on the wall "
           "clock: numpy sorting dominates, so it shows how much of a layer "
           "gain reaches an application and that compute-bound users are "
           "not slowed")
    p = 4
    KEYS_PER_RANK = 50_000

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        keys = rng.integers(0, 2**62, size=(self.p, self.KEYS_PER_RANK),
                            dtype=np.int64)
        return {"keys": keys, "count": keys.size, "sum": int(keys.sum()),
                "xor": int(np.bitwise_xor.reduce(keys, axis=None))}

    def reference(self, inputs):
        # numpy dominates this workload, and machine noise moves numpy and
        # the interpreter differently: its yardstick is one rank's keys
        # sorted alone, the way sample sort sorts them
        keys = inputs["keys"][0]

        def local_sort() -> float:
            t0 = perf_counter()
            np.sort(keys, kind="stable")
            return perf_counter() - t0
        return local_sort

    def sides(self, raw, inputs, wrap=Communicator):
        comm = wrap(raw)
        data = inputs["keys"][raw.rank]
        want = (inputs["count"], inputs["sum"], inputs["xor"])

        # the closing barrier is timed: the sort is solved when the slowest
        # rank is done, and rank 0 alone finishes anywhere among the four
        def wrapped():
            t0 = perf_counter()
            block = sample_sort_kamping(comm, data)
            raw.barrier()
            return perf_counter() - t0, block

        def hand():
            t0 = perf_counter()
            block = sample_sort_mpi(raw, data)
            raw.barrier()
            return perf_counter() - t0, block

        def check(block):
            # globally sorted, and the same multiset: order-independent
            # count / wrapping sum / xor of all keys against the inputs'
            ordered = bool((np.diff(block) >= 0).all())
            edges = (int(block[0]), int(block[-1])) if len(block) else None
            digest = (len(block), int(block.sum()),
                      int(np.bitwise_xor.reduce(block)) if len(block) else 0)
            parts = raw.allgather((ordered, edges, digest))
            if raw.rank != 0:
                return 0
            bounds = [e for _, e, _ in parts if e is not None]
            ok = all(o for o, _, _ in parts) and all(
                a[1] <= b[0] for a, b in zip(bounds, bounds[1:]))
            count = sum(d[0] for _, _, d in parts)
            total = int(np.sum([d[1] for _, _, d in parts], dtype=np.int64))
            xor = 0
            for _, _, d in parts:
                xor ^= d[2]
            return int(not (ok and (count, total, xor) == want))

        return Side(wrapped, check, 1), Side(hand, check, 1)


# -- the service -------------------------------------------------------------

def direct_jobs(raw, jobs) -> tuple[float, list]:
    """The service workload's collectives, issued directly (its raw path)."""
    out = []
    me, size = raw.rank, raw.size
    raw.barrier()
    t0 = perf_counter()
    for kind, x in jobs:
        if kind == "bcast":
            out.append(raw.bcast(x if me == 0 else None, 0))
        else:
            out.append(raw.allreduce(sum(range(x)[me::size]), SUM))
    return perf_counter() - t0, out


class ServiceP4(Workload):
    name = "service_p4"
    why = ("queue, admission, dispatch log, leases and batching dominate and "
           "the collectives beneath are tiny, so it isolates service.* from "
           "mpi.*; one closed-loop submitter keeps 16 jobs outstanding")
    p = 4
    JOBS = 200  # per batch
    WINDOW = 16
    #: the cluster's directive log only grows, so peak memory follows the
    #: number of jobs run; each launch stops at 1 200 wrapped jobs — about
    #: two thirds of what its second allows here — to compare memory at
    #: equal work whatever the speed
    MAX_ROUNDS = 6

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.integers(2, 64, size=self.JOBS).tolist()
        jobs = [("bcast" if i % 2 == 0 else "allreduce", int(x))
                for i, x in enumerate(values)]
        expected = [x if kind == "bcast" else x * (x - 1) // 2
                    for kind, x in jobs]
        return {"jobs": jobs, "expected": expected}

    def sides(self, cluster, inputs, recorder: Optional[SpanRecorder] = None):
        jobs, expected = inputs["jobs"], inputs["expected"]

        def submit(kind, x):
            if kind == "bcast":
                return cluster.submit_bcast(x)
            return cluster.submit_allreduce(range(x), op=SUM)

        def settle(handle):  # a refused submission settles as a mismatch
            return None if handle is None else handle.result(60)

        if recorder is not None:
            submit = spanned(recorder, "service.cluster.submit", 0, submit)
            settle = spanned(recorder, "service.cluster.result", 0, settle)

        def wrapped():
            window: deque = deque()
            out = []
            t0 = perf_counter()
            for kind, x in jobs:
                if len(window) == self.WINDOW:
                    out.append(settle(window.popleft()))
                try:
                    window.append(submit(kind, x))
                except ClusterSaturated:
                    window.append(None)
            while window:
                out.append(settle(window.popleft()))
            return perf_counter() - t0, out

        def hand():
            return run_mpi(direct_jobs, self.p, args=(jobs,)).values[0]

        def check(out):
            return sum(got != want for got, want in zip(out, expected))

        return (Side(wrapped, check, len(jobs)), Side(hand, check, len(jobs)))

    def launch(self, inputs, seconds, traced=False):
        with Cluster(self.p) as cluster:
            wrapped, hand = self.sides(cluster, inputs)
            if not traced:
                return Outcome(measure_rounds(wrapped, hand, seconds,
                                              max_rounds=self.MAX_ROUNDS))
            recorder = SpanRecorder()
            with_spans, _ = self.sides(cluster, inputs, recorder)
            rounds = measure_rounds(with_spans, wrapped, seconds)
        return Outcome(rounds, recorder.since(rounds.first_timed))


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    BindP1(), BindColdP1(), CollThreadP4(), P2PThreadP2(), P2PProcessP2(),
    P2PBulkProcessP2(), SortThreadP4(), ServiceP4())}
