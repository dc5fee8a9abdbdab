"""Optimize + replay: bit-identical values, fewer ops, verified provenance.

The acceptance surface of the IR: for realistic epochs (sample sort, BFS)
the optimized replay must reproduce the unoptimized run's values exactly on
both execution backends while issuing strictly fewer raw operations and
bytes, and the replayer must go through the call-plan cache (steady-state
hit counts are pinned here) and refuse to replay when the environment would
silently change a recorded algorithm or a value diverges.
"""

from __future__ import annotations

import copy
from collections import Counter

import numpy as np
import pytest

from repro.apps.ir_demo import bfs_epoch, sample_sort_epoch
from repro.mpi import run_mpi
from repro.mpi.engine import CollectiveEngine
from repro.mpi.errors import RawUsageError
from repro.mpi.ir.nodes import CommOp
from repro.mpi.ir.replayer import ReplayPlan, replay_main
from repro.mpi.ops import SUM


def _fusable(raw):
    """reduce + bcast at root 0: the canonical fuse_reduce_bcast target."""
    total = raw.reduce(raw.rank, SUM, 0)
    return raw.bcast(total, 0)


def _allreduce_loop(raw, iters=8):
    total = 0
    for _ in range(iters):
        total = raw.allreduce(total + raw.rank, SUM)
    return total


def _two_shape_loop(raw, iters=5):
    out = 0
    for _ in range(iters):
        out = raw.allreduce(out + raw.rank, SUM)
        raw.allgather(out)
    return out


# -- differential acceptance: sample sort and BFS at p in {4, 8} -----------

@pytest.mark.parametrize("p", [4, 8])
@pytest.mark.parametrize("app", [sample_sort_epoch, bfs_epoch],
                         ids=["sample_sort", "bfs"])
def test_optimized_replay_is_bit_identical(app, p, backend, clean_engine):
    base = run_mpi(app, p, engine=clean_engine, backend=backend)
    res = run_mpi(app, p, ir="optimize", engine=clean_engine, backend=backend)
    # bit-identical program values on every rank
    assert res.values == base.values

    rewrites = res.ir.pass_rewrites()
    # at least one fusion pass and one coalescing pass fired
    assert rewrites["fuse_reduce_bcast"] >= 1
    assert rewrites["fuse_count_exchange"] >= 1
    assert rewrites["batch_bcasts"] >= 1
    # strictly fewer raw operations and wire bytes after optimization
    assert res.ir.optimized.total_raw_ops() < res.ir.epoch.total_raw_ops()
    assert res.ir.optimized.total_bytes() < res.ir.epoch.total_bytes()
    # the replay verified every node it had a recorded value for
    assert all(s["verified"] > 0 for s in res.ir.replay_stats)


def _nonblocking(raw):
    """The three started collectives plus an ibarrier completed by test()."""
    reqs = [raw.iallreduce(np.arange(4) + raw.rank, SUM),
            raw.ibcast(np.arange(3) * 7 if raw.rank == 0 else None, 0),
            raw.iallgather(raw.rank * 11)]
    barrier = raw.ibarrier()
    while not barrier.test()[0]:
        pass
    return [req.wait() for req in reqs]


def test_nonblocking_collectives_record_and_replay(backend, clean_engine):
    """Values and clocks are the plain run's under ``record`` and
    ``optimize``, and the replay verifies each non-blocking node's wait —
    the ibarrier's too, recorded by the ``test()`` that completed it."""
    base = run_mpi(_nonblocking, 4, engine=clean_engine, backend=backend)
    for mode in ("record", "optimize"):
        res = run_mpi(_nonblocking, 4, ir=mode, engine=clean_engine,
                      backend=backend)
        assert repr(res.values) == repr(base.values)
        assert res.times == base.times
    for nodes in res.ir.epoch.ops:
        assert Counter(n.kind for n in nodes) == {"nbc": 4, "wait": 4}
    assert res.ir.replay_stats == [
        {"verified": 4, "compilations": 5, "hits": 3}] * 4


def test_replay_issues_exactly_the_optimized_ops(clean_engine):
    """The replay's PMPI-style counters match the optimized graph node for
    node — nothing extra is issued and nothing is skipped."""
    res = run_mpi(sample_sort_epoch, 4, ir="optimize", engine=clean_engine)
    issued: Counter = Counter()
    for per_rank in res.ir.replay.counts:
        issued.update(per_rank)
    assert issued == res.ir.optimized.op_counts()


# -- call-plan cache steady state (pinned) ---------------------------------

def test_plan_cache_reaches_steady_state(clean_engine):
    """Eight identical allreduce nodes share one plan signature: exactly one
    compilation per rank, every later node a cache hit."""
    res = run_mpi(_allreduce_loop, 4, ir="optimize", engine=clean_engine)
    for stats in res.ir.replay_stats:
        assert stats == {"verified": 8, "compilations": 1, "hits": 7}


def test_plan_cache_compiles_once_per_signature(clean_engine):
    """Two alternating node shapes pin two compilations, 2·iters−2 hits."""
    res = run_mpi(_two_shape_loop, 4, ir="optimize", engine=clean_engine)
    for stats in res.ir.replay_stats:
        assert stats == {"verified": 10, "compilations": 2, "hits": 8}


def test_plan_cache_totals_surface_in_summary(clean_engine):
    res = run_mpi(_allreduce_loop, 4, ir="optimize", engine=clean_engine)
    cache = res.ir.summary()["plan_cache"]
    assert cache == {"compilations": 4, "hits": 28}


# -- trace provenance ------------------------------------------------------

def test_replay_trace_carries_pass_provenance(clean_engine):
    """Every rewritten raw node shows up in the replay's Chrome trace with
    an ``ir_pass`` arg naming the pass that produced it."""
    res = run_mpi(sample_sort_epoch, 4, ir="optimize", engine=clean_engine,
                  trace=True)
    replay = res.ir.replay
    assert replay.trace is not None
    events = [e for e in replay.chrome_trace()["traceEvents"]
              if e.get("ph") == "X" and "ir_pass" in e.get("args", {})]
    need = Counter((n.op, n.ir_pass) for n in res.ir.optimized.rewritten()
                   if n.is_raw)
    have = Counter((e["name"], e["args"]["ir_pass"]) for e in events)
    assert need, "expected at least one rewritten raw node"
    for key, count in need.items():
        assert have[key] >= count, f"missing provenance events for {key}"
    # no trace event claims a pass that never rewrote anything
    fired = {name for name, n in res.ir.pass_rewrites().items() if n}
    assert {ir_pass for _, ir_pass in have} <= fired


def test_recorded_nodes_replay_without_provenance(clean_engine):
    """Untouched nodes must NOT be tagged: provenance marks rewrites only."""
    res = run_mpi(_allreduce_loop, 4, ir="optimize", engine=clean_engine,
                  trace=True)
    events = res.ir.replay.chrome_trace()["traceEvents"]
    assert not any("ir_pass" in e.get("args", {}) for e in events)


# -- replay refuses to lie -------------------------------------------------

def test_replay_refuses_env_forced_algorithm_conflict(clean_engine):
    """A fused allreduce pins algorithm=reduce_bcast; replaying under an
    environment that forces a different algorithm must fail loudly rather
    than silently execute a schedule the rewrite never reasoned about."""
    res = run_mpi(_fusable, 4, ir="optimize", engine=clean_engine)
    assert res.ir.pass_rewrites()["fuse_reduce_bcast"] == 1
    plan = ReplayPlan(schedule=res.ir.optimized.ops,
                      members=dict(res.ir.optimized.members))
    forced = CollectiveEngine(env={"REPRO_COLL_ALLREDUCE":
                                   "recursive_doubling"})
    with pytest.raises(RuntimeError, match="IRReplayError"):
        run_mpi(replay_main, 4, args=(plan,), engine=forced)


def test_replay_detects_value_divergence(clean_engine):
    res = run_mpi(_fusable, 4, ir="record", engine=clean_engine)
    tampered = copy.deepcopy(res.ir.epoch)
    # tamper the final node so every rank finishes communicating before the
    # verifier trips (a mid-epoch abort would just strand the peers)
    tampered.ops[0][-1].result = 999_999  # not what the bcast delivers
    plan = ReplayPlan(schedule=tampered.ops, members=dict(tampered.members))
    with pytest.raises(RuntimeError, match="IRReplayError"):
        run_mpi(replay_main, 4, args=(plan,), engine=clean_engine)


def test_replay_refuses_an_undeclared_collective(clean_engine):
    """A ``coll`` node must name a declared collective; any other ``RawComm``
    method (here ``compute``) is never called with the node's payload."""
    res = run_mpi(_fusable, 2, ir="record", engine=clean_engine)
    tampered = copy.deepcopy(res.ir.epoch)
    for nodes in tampered.ops:  # appended last: no rank strands a peer
        nodes.append(CommOp(idx=len(nodes), rank=nodes[0].rank, kind="coll",
                            op="compute", payload=1e-6))
    plan = ReplayPlan(schedule=tampered.ops, members=dict(tampered.members))
    with pytest.raises(RuntimeError,
                       match="IRReplayError.*no declared collective"):
        run_mpi(replay_main, 2, args=(plan,), engine=clean_engine)


# -- activation surface ----------------------------------------------------

def test_invalid_ir_mode_rejected():
    for mode in ("banana", "off"):
        with pytest.raises(RawUsageError, match="not a mode"):
            run_mpi(_fusable, 2, ir=mode)


def test_ir_incompatible_with_record_replay_fuzzing():
    with pytest.raises(RawUsageError, match="fuzz_seed"):
        run_mpi(_fusable, 2, ir="record", fuzz_seed=7)

