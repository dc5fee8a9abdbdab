"""Structured communication tracing: golden traces, Chrome export, volumes.

Golden-trace regression tests pin down, per count-inference path
(allgatherv / alltoallv / gatherv at a non-zero root), the *exact* raw event
sequence, byte volumes, and peer sets — and that disabled tracing leaves the
PMPI counters and virtual clocks bit-identical.  The Chrome-export test is
the acceptance check: a 4-rank allgatherv run exports trace-event JSON whose
schema validates (monotone per-rank timestamps, event counts matching the
PMPI counters, byte totals matching the recorder aggregates).
"""

import json
from collections import Counter

import numpy as np
import pytest

from repro.core import op as op_param
from repro.core import recv_counts_out, root, send_buf, send_counts
from repro.core.measurements import Timer
from repro.core.runner import run as run_kamping
from repro.mpi import (
    ANY_SOURCE,
    ANY_TAG,
    PROC_NULL,
    SUM,
    CollectiveEngine,
    CostModel,
    RawUsageError,
    TraceRecorder,
    calls,
    expect_calls,
    run_mpi,
)

W = 8  # int64 word size: every payload below is 8-byte words


def _trace_kamping(fn, p, **kw):
    res = run_kamping(fn, p, trace=True, **kw)
    assert res.trace is not None
    return res


def _event_ops(res, rank):
    return tuple(e.op for e in res.trace.events_for(rank))


def _counters_match_events(res):
    """Every counted raw call produced exactly one trace event (parity)."""
    for r in range(len(res.counts)):
        traced = Counter(e.op for e in res.trace.events_for(r)
                         if not e.op.startswith("timer:"))
        assert traced == Counter(res.counts[r])


# -- golden traces: one per count-inference path ---------------------------


class TestGoldenAllgatherv:
    """Paper Fig. 1/2: omitted recv counts ⇒ allgather of counts + allgatherv."""

    P = 4
    TOTAL = W * sum(r + 1 for r in range(P))  # Σ counts, in bytes

    @staticmethod
    def _main(comm):
        v = np.arange(comm.rank + 1, dtype=np.int64)
        return comm.allgatherv(send_buf(v)).tolist()

    def test_exact_event_sequence_volumes_and_peers(self):
        res = _trace_kamping(self._main, self.P)
        everyone = tuple(range(self.P))
        for r in range(self.P):
            events = res.trace.events_for(r)
            assert tuple(e.op for e in events) == ("allgather", "allgatherv")
            counts_xchg, payload_xchg = events
            # count exchange: one scalar out, p scalars back, symmetric peers
            assert counts_xchg.sent == W
            assert counts_xchg.recvd == W * self.P
            assert counts_xchg.peers == everyone
            # payload exchange: local block out, Σ counts bytes back
            assert payload_xchg.sent == W * (r + 1)
            assert payload_xchg.recvd == self.TOTAL
            assert payload_xchg.peers == everyone
            assert payload_xchg.t_start <= payload_xchg.t_end
        _counters_match_events(res)

    def test_volume_aware_expect_calls(self):
        total = self.TOTAL
        p = self.P

        def main(comm):
            v = np.arange(comm.rank + 1, dtype=np.int64)
            with expect_calls(comm.raw,
                              allgather=calls(1, sent=W, recvd=W * p),
                              allgatherv=calls(1, sent=W * (comm.rank + 1),
                                               recvd=total,
                                               peers=range(p))):
                comm.allgatherv(send_buf(v))

        _trace_kamping(main, p)

    def test_disabled_tracing_leaves_counters_and_clocks_unchanged(self):
        traced = _trace_kamping(self._main, self.P)
        plain = run_kamping(self._main, self.P)
        assert plain.trace is None
        assert plain.counts == traced.counts
        assert plain.times == traced.times
        assert plain.values == traced.values


class TestGoldenAlltoallv:
    """§III-A: omitted recv counts ⇒ alltoall of count vectors + alltoallv."""

    P = 4
    COUNTS = [d % 2 + 1 for d in range(P)]  # per-destination send counts

    @staticmethod
    def _main(comm):
        p = comm.size
        counts = [d % 2 + 1 for d in range(p)]
        data = np.concatenate(
            [np.full(counts[d], comm.rank * 10 + d, dtype=np.int64)
             for d in range(p)]
        )
        buf, rcounts = comm.alltoallv(send_buf(data), send_counts(counts),
                                      recv_counts_out())
        return buf.tolist(), rcounts

    def test_exact_event_sequence_volumes_and_peers(self):
        res = _trace_kamping(self._main, self.P)
        everyone = tuple(range(self.P))
        send_bytes = W * sum(self.COUNTS)
        for r in range(self.P):
            events = res.trace.events_for(r)
            assert tuple(e.op for e in events) == ("alltoall", "alltoallv")
            counts_xchg, payload_xchg = events
            # count-vector exchange: p ints out, p ints back
            assert counts_xchg.sent == W * self.P
            assert counts_xchg.recvd == W * self.P
            assert counts_xchg.peers == everyone
            # payload: Σ send_counts out; every source sends COUNTS[r] here
            assert payload_xchg.sent == send_bytes
            assert payload_xchg.recvd == W * self.P * self.COUNTS[r]
            assert payload_xchg.peers == everyone
        _counters_match_events(res)


class TestGoldenGathervNonzeroRoot:
    """Rooted inference: raw gather of counts + gatherv, both rooted at 2."""

    P = 4
    ROOT = 2
    TOTAL = W * sum(r + 1 for r in range(P))

    @staticmethod
    def _main(comm):
        v = np.arange(comm.rank + 1, dtype=np.int64)
        out = comm.gatherv(send_buf(v), root(2))
        return None if out is None else out.tolist()

    def test_exact_event_sequence_volumes_and_peers(self):
        res = _trace_kamping(self._main, self.P)
        for r in range(self.P):
            events = res.trace.events_for(r)
            assert tuple(e.op for e in events) == ("gather", "gatherv")
            counts_xchg, payload_xchg = events
            # every rank's events point at the root, on the root too
            assert counts_xchg.peers == (self.ROOT,)
            assert payload_xchg.peers == (self.ROOT,)
            assert counts_xchg.sent == W
            assert payload_xchg.sent == W * (r + 1)
            if r == self.ROOT:
                assert counts_xchg.recvd == W * self.P
                assert payload_xchg.recvd == self.TOTAL
            else:
                assert counts_xchg.recvd == 0
                assert payload_xchg.recvd == 0
        assert res.values[self.ROOT] is not None
        _counters_match_events(res)

    def test_volume_aware_expect_calls_at_root(self):
        total, rt, p = self.TOTAL, self.ROOT, self.P

        def main(comm):
            v = np.arange(comm.rank + 1, dtype=np.int64)
            recvd = total if comm.rank == rt else 0
            with expect_calls(comm.raw,
                              gather=1,
                              gatherv=calls(1, sent=W * (comm.rank + 1),
                                            recvd=recvd, peers=(rt,))):
                comm.gatherv(send_buf(v), root(rt))

        _trace_kamping(main, p)


class TestGoldenRawCollectives:
    """The collectives the count-inference goldens above never reach, called
    raw at a non-zero root: who sends, who records received bytes and who the
    peers are is what each op's declaration says (``repro.mpi.collectives``).
    Values recorded before the 17 hand-written ``RawComm`` bodies became one."""

    P = 4
    ROOT = 3
    ALL = (0, 1, 2, 3)
    #: per rank: ``(op, peers, sent, recvd, algorithm)``; the neighborhood
    #: ops run on a ring (sources: left, destinations: right)
    GOLDEN = [
        [("bcast", (3,), 0, 24, "binomial"), ("scatter", (3,), 0, 16, "linear"),
         ("scatterv", (3,), 0, 8, "linear"),
         ("alltoallw", ALL, 48, 32, "pairwise"),
         ("reduce", (3,), 32, 0, "binomial"), ("scan", ALL, 16, 16, "doubling"),
         ("exscan", ALL, 16, 16, "doubling"),
         ("neighbor_alltoall", (1, 3), 8, 32, "direct"),
         ("neighbor_alltoallv", (1, 3), 8, 32, "direct")],
        [("bcast", (3,), 0, 24, "binomial"), ("scatter", (3,), 0, 16, "linear"),
         ("scatterv", (3,), 0, 16, "linear"),
         ("alltoallw", ALL, 48, 64, "pairwise"),
         ("reduce", (3,), 32, 0, "binomial"), ("scan", ALL, 16, 16, "doubling"),
         ("exscan", ALL, 16, 16, "doubling"),
         ("neighbor_alltoall", (0, 2), 16, 8, "direct"),
         ("neighbor_alltoallv", (0, 2), 16, 8, "direct")],
        [("bcast", (3,), 0, 24, "binomial"), ("scatter", (3,), 0, 16, "linear"),
         ("scatterv", (3,), 0, 24, "linear"),
         ("alltoallw", ALL, 48, 32, "pairwise"),
         ("reduce", (3,), 32, 0, "binomial"), ("scan", ALL, 16, 16, "doubling"),
         ("exscan", ALL, 16, 16, "doubling"),
         ("neighbor_alltoall", (1, 3), 24, 16, "direct"),
         ("neighbor_alltoallv", (1, 3), 24, 16, "direct")],
        [("bcast", (3,), 24, 0, "binomial"), ("scatter", (3,), 64, 16, "linear"),
         ("scatterv", (3,), 80, 32, "linear"),
         ("alltoallw", ALL, 48, 64, "pairwise"),
         ("reduce", (3,), 32, 32, "binomial"), ("scan", ALL, 16, 16, "doubling"),
         ("exscan", ALL, 16, 16, "doubling"),
         ("neighbor_alltoall", (0, 2), 32, 24, "direct"),
         ("neighbor_alltoallv", (0, 2), 32, 24, "direct")],
    ]

    @staticmethod
    def _main(raw):
        p, r, root = raw.size, raw.rank, TestGoldenRawCollectives.ROOT
        at_root = r == root
        raw.bcast(np.arange(3, dtype=np.int64) if at_root else None, root)
        raw.scatter([np.full(2, i, dtype=np.int64) for i in range(p)]
                    if at_root else None, root)
        counts = [i + 1 for i in range(p)]
        raw.scatterv(
            np.arange(sum(counts), dtype=np.int64) if at_root else None,
            counts if at_root else None, root)
        raw.alltoallw([np.full(d % 2 + 1, r, dtype=np.int64)
                       for d in range(p)])
        raw.reduce(np.arange(4, dtype=np.int64) * r, SUM, root)
        raw.scan(np.full(2, r, dtype=np.int64), SUM)
        raw.exscan(np.full(2, r, dtype=np.int64), SUM)
        ring = raw.dist_graph_create_adjacent([(r - 1) % p], [(r + 1) % p])
        ring.neighbor_alltoall([np.full(r + 1, r, dtype=np.int64)])
        ring.neighbor_alltoallv(np.full(r + 1, r, dtype=np.int64), [r + 1],
                                [(r - 1) % p + 1])

    def test_exact_volumes_peers_and_algorithms(self):
        res = run_mpi(self._main, self.P, trace=True,
                      engine=CollectiveEngine(CostModel(), env={}))
        for r in range(self.P):
            traced = [(e.op, e.peers, e.sent, e.recvd, e.algorithm)
                      for e in res.trace.events_for(r)
                      if e.algorithm is not None]
            assert traced == self.GOLDEN[r]
        _counters_match_events(res)


# -- Chrome trace-event export (acceptance test) ---------------------------


class TestChromeTraceExport:
    P = 4

    def _run(self):
        def main(comm):
            v = np.arange(comm.rank + 1, dtype=np.int64)
            return comm.allgatherv(send_buf(v)).tolist()

        return _trace_kamping(main, self.P)

    def test_schema_and_consistency(self, tmp_path):
        res = self._run()
        path = tmp_path / "trace.json"
        res.trace.write_chrome_trace(path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc == res.chrome_trace()
        assert set(doc) == {"traceEvents", "displayTimeUnit"}

        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(meta) + len(complete) == len(doc["traceEvents"])
        # one thread_name metadata record per rank
        assert sorted(m["tid"] for m in meta) == list(range(self.P))
        assert all(m["name"] == "thread_name" for m in meta)
        assert [m["args"]["name"] for m in sorted(meta, key=lambda m: m["tid"])
                ] == [f"rank {r}" for r in range(self.P)]

        per_rank_ts: dict[int, list[float]] = {r: [] for r in range(self.P)}
        per_rank_bytes = {r: {"sent": 0, "recvd": 0} for r in range(self.P)}
        per_rank_ops: dict[int, Counter] = {r: Counter() for r in range(self.P)}
        for e in complete:
            assert {"name", "cat", "ph", "pid", "tid", "ts", "dur",
                    "args"} <= set(e)
            assert e["pid"] == 0 and 0 <= e["tid"] < self.P
            assert e["ts"] >= 0.0 and e["dur"] >= 0.0
            per_rank_ts[e["tid"]].append(e["ts"])
            per_rank_bytes[e["tid"]]["sent"] += e["args"]["sent_bytes"]
            per_rank_bytes[e["tid"]]["recvd"] += e["args"]["recvd_bytes"]
            per_rank_ops[e["tid"]][e["name"]] += 1

        for r in range(self.P):
            # per-rank timestamps are monotone (events are issue-ordered)
            assert per_rank_ts[r] == sorted(per_rank_ts[r])
            # event counts match the PMPI counters exactly
            assert per_rank_ops[r] == Counter(res.counts[r])
        # byte totals in the export match the recorder's aggregates
        assert [per_rank_bytes[r] for r in range(self.P)] \
            == res.trace.per_rank_bytes()
        totals = res.trace.per_op_totals()
        assert sum(c.total() for c in per_rank_ops.values()) \
            == sum(a["calls"] for a in totals.values())
        assert sum(b["sent"] + b["recvd"] for b in per_rank_bytes.values()) \
            == sum(a["bytes"] for a in totals.values())

    def test_untraced_run_has_no_trace(self):
        res = run_mpi(lambda comm: comm.barrier(), 2)
        assert res.trace is None
        assert res.op_bytes() == {}
        with pytest.raises(RawUsageError, match="trace=True"):
            res.chrome_trace()


# -- volume-aware assertion failures ---------------------------------------


class TestVolumeAssertions:
    def test_byte_mismatch_reports_recvd(self):
        def main(comm):
            v = np.arange(comm.rank + 1, dtype=np.int64)
            with expect_calls(comm.raw, allgather=1,
                              allgatherv=calls(1, recvd=1)):
                comm.allgatherv(send_buf(v))

        with pytest.raises(RuntimeError, match="recvd bytes"):
            run_kamping(main, 2, trace=True)

    def test_peer_mismatch_reports_peers(self):
        def main(comm):
            with expect_calls(comm, barrier=calls(1, peers=(7,))):
                comm.barrier()

        with pytest.raises(RuntimeError, match="expected peers"):
            run_mpi(main, 2, trace=True)

    def test_specs_require_traced_run(self):
        def main(comm):
            with expect_calls(comm.raw, barrier=calls(1)):
                comm.raw.barrier()

        with pytest.raises(RuntimeError, match="traced run"):
            run_kamping(main, 2)  # trace left off on purpose

    def test_plain_counts_still_work_untraced(self):
        def main(comm):
            with expect_calls(comm, barrier=2):
                comm.barrier()
                comm.barrier()

        run_mpi(main, 2)


# -- point-to-point, PROC_NULL, timers, RMA, reporting ---------------------


class TestP2PEvents:
    def test_send_recv_with_wildcard_backfills_peer_and_tag(self):
        def main(comm):
            if comm.rank == 0:
                comm.send(np.arange(3, dtype=np.int64), 1, tag=7)
            else:
                comm.recv(ANY_SOURCE, ANY_TAG)

        res = run_mpi(main, 2, trace=True)
        (sent,) = res.trace.events_for(0)
        assert (sent.op, sent.peers, sent.tag) == ("send", (1,), 7)
        assert (sent.sent, sent.recvd) == (3 * W, 0)
        (recv,) = res.trace.events_for(1)
        # the wildcard receive resolves its peer/tag from the matched Status
        assert (recv.op, recv.peers, recv.tag) == ("recv", (0,), 7)
        assert (recv.sent, recv.recvd) == (0, 3 * W)

    def test_proc_null_ops_record_no_event(self):
        def main(comm):
            comm.send(np.arange(4), PROC_NULL)
            comm.recv(PROC_NULL)

        res = run_mpi(main, 1, trace=True)
        # counted (PMPI counts the call) but nothing moved, so no event
        assert res.counts[0]["send"] == 1
        assert res.counts[0]["recv"] == 1
        assert res.trace.events_for(0) == ()


class TestTimerSpans:
    def test_timer_stop_records_named_span(self):
        def main(comm):
            timer = Timer(comm)
            with timer.scoped("exchange"):
                comm.allreduce_single(send_buf(comm.rank), op_param(SUM))
            return timer.local()["exchange"]["count"]

        res = run_kamping(main, 2, trace=True)
        assert res.values == [1, 1]
        for r in range(2):
            spans = [e for e in res.trace.events_for(r)
                     if e.op == "timer:exchange"]
            assert len(spans) == 1
            mpi = [e for e in res.trace.events_for(r) if e.op == "allreduce"]
            assert spans[0].t_start <= mpi[0].t_start
            assert spans[0].t_end >= mpi[0].t_end
        chrome = res.chrome_trace()
        cats = {e["name"]: e["cat"] for e in chrome["traceEvents"]
                if e["ph"] == "X"}
        assert cats["timer:exchange"] == "timer"
        assert cats["allreduce"] == "mpi"

    def test_timer_is_silent_untraced(self):
        def main(comm):
            timer = Timer(comm)
            with timer.scoped("quiet"):
                comm.barrier()
            return True

        res = run_kamping(main, 2)
        assert res.trace is None and all(res.values)


class TestRmaEvents:
    def test_put_get_volumes(self):
        def main(comm):
            local = np.zeros(4, dtype=np.int64)
            win = comm.win_create(local)
            win.fence()
            if comm.rank == 0:
                win.put(np.arange(2, dtype=np.int64), target=1, offset=1)
            win.fence()
            got = win.get(0, count=4) if comm.rank == 1 else None
            win.fence()
            win.free()
            return None if got is None else got.wait().tolist()

        res = run_mpi(main, 2, trace=True)
        puts = [e for e in res.trace.events_for(0) if e.op == "win_put"]
        assert [(e.sent, e.recvd, e.peers) for e in puts] == [(2 * W, 0, (1,))]
        gets = [e for e in res.trace.events_for(1) if e.op == "win_get"]
        assert [(e.sent, e.recvd, e.peers) for e in gets] == [(0, 4 * W, (0,))]
        _counters_match_events(res)


class TestNbcEvents:
    def test_nonblocking_collectives_trace_at_issue(self):
        def main(comm):
            req = comm.iallreduce(comm.rank + 1, SUM)
            total = req.wait()
            req2 = comm.ibcast(np.arange(2, dtype=np.int64)
                               if comm.rank == 0 else None)
            req2.wait()
            return total

        res = run_mpi(main, 3, trace=True)
        for r in range(3):
            ops = [e.op for e in res.trace.events_for(r)]
            assert ops == ["iallreduce", "ibcast"]
        _counters_match_events(res)


class TestAggregatesAndReporting:
    def test_per_op_totals_and_table(self):
        def main(comm):
            comm.allreduce(np.arange(4, dtype=np.int64), SUM)
            comm.barrier()

        res = run_mpi(main, 3, trace=True)
        totals = res.op_bytes()
        assert totals["allreduce"]["calls"] == 3
        assert totals["allreduce"]["sent"] == 3 * 4 * W
        assert totals["barrier"]["bytes"] == 0
        from repro.reporting import op_bytes_table

        table = op_bytes_table(totals)
        assert "allreduce" in table and "barrier" in table
        assert op_bytes_table({}) == "(no trace)"

    def test_shared_recorder_across_runs(self):
        tracer = TraceRecorder(2)
        run_mpi(lambda comm: comm.barrier(), 2, trace=tracer)
        run_mpi(lambda comm: comm.barrier(), 2, trace=tracer)
        assert [e.op for e in tracer.events_for(0)] == ["barrier", "barrier"]

    def test_all_events_globally_sorted(self):
        def main(comm):
            for _ in range(3):
                comm.allreduce(comm.rank, SUM)

        res = run_mpi(main, 4, trace=True)
        starts = [e.t_start for e in res.trace.all_events()]
        assert starts == sorted(starts)
