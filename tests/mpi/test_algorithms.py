"""The collective algorithm registry and selection engine.

Three layers of coverage:

1. **Registry invariants** — the headline collectives carry the promised
   implementations, defaults are the seed algorithms, lookups fail loudly.
2. **Forced-algorithm matrix** — every registered algorithm of every
   collective produces results (and PMPI counters) identical to the default
   algorithm, across power-of-two and ragged rank counts.  This is the
   deterministic fast-lane core; the hypothesis suite in
   ``test_algorithms_properties.py`` re-runs the matrix against sequential
   references with random payloads.
3. **Selection semantics** — precedence (overrides > env > tuning > policy),
   size-bucketed tuning rules, the cost-model policy, rank-local
   ``use_algorithms`` scoping, golden-trace bit-compatibility of the default
   engine, and the singleton (p=1) fast paths.
"""

import functools

import numpy as np
import pytest

from repro.core import op as op_param
from repro.core import send_buf
from repro.core.errors import UsageError
from repro.core.runner import run as run_kamping
from repro.mpi import (
    FREE,
    CollectiveEngine,
    CostModel,
    FaultCampaign,
    RawUsageError,
    SUM,
    algorithms,
    expect_calls,
    run_mpi,
    user_op,
)
from repro.mpi.engine import forced_from_env


def _engine(**kw) -> CollectiveEngine:
    """An engine blind to the process environment (CI forces REPRO_COLL_*)."""
    kw.setdefault("env", {})
    return CollectiveEngine(FREE, **kw)


# ---------------------------------------------------------------------------
# registry invariants
# ---------------------------------------------------------------------------


#: the tentpole contract: every headline collective offers these algorithms
HEADLINE = {
    "bcast": {"binomial", "linear", "scatter_allgather"},
    "allgather": {"bruck", "ring", "gather_bcast"},
    "allreduce": {"recursive_doubling", "reduce_bcast", "ring"},
    "alltoallv": {"pairwise", "spread"},
}

#: the seed's original algorithm per collective (bit-compatible defaults)
SEED_DEFAULTS = {
    "barrier": "dissemination",
    "bcast": "binomial",
    "gather": "binomial",
    "gatherv": "linear",
    "scatter": "linear",
    "scatterv": "linear",
    "allgather": "bruck",
    "allgatherv": "ring",
    "alltoall": "pairwise",
    "alltoallv": "pairwise",
    "alltoallw": "pairwise",
    "reduce": "binomial",
    "allreduce": "recursive_doubling",
    "scan": "doubling",
    "exscan": "doubling",
    "neighbor_alltoall": "direct",
    "neighbor_alltoallv": "direct",
}


def test_headline_collectives_have_promised_algorithms():
    for op, names in HEADLINE.items():
        assert names <= set(algorithms.names(op)), op


def test_defaults_are_the_seed_algorithms():
    assert set(algorithms.collectives()) == set(SEED_DEFAULTS)
    for op, name in SEED_DEFAULTS.items():
        assert algorithms.default_name(op) == name
        assert algorithms.names(op)[0] == name  # default listed first
        assert algorithms.default(op) is algorithms.get(op, name)


def test_unknown_lookups_fail_with_available_names():
    with pytest.raises(RawUsageError, match="registered: bruck"):
        algorithms.get("allgather", "nope")
    with pytest.raises(RawUsageError, match="unknown collective"):
        algorithms.names("frobnicate")


def test_headline_algorithms_carry_cost_formulas():
    for op in HEADLINE:
        for algo in algorithms.algorithms(op):
            assert algo.cost is not None, (op, algo.name)
            cost = algo.cost(8, 4096, CostModel())
            assert np.isfinite(cost) and cost > 0.0


def test_costmodel_policy_without_cost_formulas_keeps_the_default():
    # neighbor_alltoall's one algorithm has no formula: nothing to argmin
    assert algorithms.get("neighbor_alltoall", "direct").cost is None
    picked = _engine(policy="costmodel").resolve("neighbor_alltoall", p=4,
                                                 nbytes=0)
    assert picked is algorithms.default("neighbor_alltoall")


# ---------------------------------------------------------------------------
# forced-algorithm matrix: every algorithm ≡ the default
# ---------------------------------------------------------------------------

_NONCOMM = user_op(lambda a, b: np.asarray(a) * 2 + np.asarray(b),
                   commutative=False, name="affine")


def _scn_barrier(comm):
    for _ in range(2):
        comm.barrier()
    return comm.rank


def _scn_bcast(comm):
    root = comm.size - 1
    obj = comm.bcast({"k": [1, 2]} if comm.rank == root else None, root)
    arr = comm.bcast(np.arange(3 * comm.size, dtype=np.int64)
                     if comm.rank == 0 else None, 0)
    short = comm.bcast("tiny" if comm.rank == 0 else None, 0)
    return obj, arr.tolist(), short


def _scn_gather(comm):
    out = comm.gather(comm.rank * 2 + 1, comm.size - 1)
    return out


def _scn_gatherv(comm):
    block = np.full(comm.rank + 1, comm.rank, dtype=np.int64)
    counts = [r + 1 for r in range(comm.size)] if comm.rank == 0 else None
    out = comm.gatherv(block, counts, 0)
    return None if out is None else out.tolist()


def _scn_scatter(comm):
    root = comm.size - 1
    payloads = [[r, r * r] for r in range(comm.size)] if comm.rank == root else None
    return comm.scatter(payloads, root)


def _scn_scatterv(comm):
    counts = [r + 1 for r in range(comm.size)]
    buf = np.arange(sum(counts), dtype=np.int64) if comm.rank == 0 else None
    return comm.scatterv(buf, counts if comm.rank == 0 else None, 0).tolist()


def _scn_allgather(comm):
    return comm.allgather((comm.rank, "x" * comm.rank))


def _scn_allgatherv(comm):
    block = np.full(comm.rank + 1, comm.rank + 10, dtype=np.int64)
    counts = [r + 1 for r in range(comm.size)]
    return comm.allgatherv(block, counts).tolist()


def _scn_alltoall(comm):
    return comm.alltoall([comm.rank * 100 + d for d in range(comm.size)])


def _scn_alltoallv(comm):
    p = comm.size
    counts = [(comm.rank + d) % 3 for d in range(p)]
    rcounts = [(s + comm.rank) % 3 for s in range(p)]
    buf = np.arange(sum(counts), dtype=np.int64) + 1000 * comm.rank
    return comm.alltoallv(buf, counts, rcounts).tolist()


def _scn_alltoallw(comm):
    blocks = [np.full(2, comm.rank * 10 + d, dtype=np.int64)
              for d in range(comm.size)]
    return [np.asarray(b).tolist() for b in comm.alltoallw(blocks)]


def _scn_reduce(comm):
    s = comm.reduce(np.arange(4, dtype=np.int64) + comm.rank, SUM, 0)
    nc = comm.reduce(np.int64(comm.rank + 1), _NONCOMM, comm.size - 1)
    return (None if s is None else s.tolist(),
            None if nc is None else int(nc))


def _scn_allreduce(comm):
    s = comm.allreduce(np.arange(comm.size + 2, dtype=np.int64) + comm.rank, SUM)
    nc = comm.allreduce(np.int64(comm.rank + 1), _NONCOMM)
    return s.tolist(), int(nc)


def _scn_scan(comm):
    return int(comm.scan(np.int64(comm.rank + 1), SUM))


def _scn_exscan(comm):
    out = comm.exscan(np.int64(comm.rank + 1), SUM)
    return None if out is None else int(out)


SCENARIOS = {
    "barrier": _scn_barrier,
    "bcast": _scn_bcast,
    "gather": _scn_gather,
    "gatherv": _scn_gatherv,
    "scatter": _scn_scatter,
    "scatterv": _scn_scatterv,
    "allgather": _scn_allgather,
    "allgatherv": _scn_allgatherv,
    "alltoall": _scn_alltoall,
    "alltoallv": _scn_alltoallv,
    "alltoallw": _scn_alltoallw,
    "reduce": _scn_reduce,
    "allreduce": _scn_allreduce,
    "scan": _scn_scan,
    "exscan": _scn_exscan,
}


def _matrix_cases():
    # neighbor collectives need a topology communicator; their single direct
    # algorithm is exercised by tests/mpi/test_collectives.py
    for op in sorted(SCENARIOS):
        for name in algorithms.names(op):
            yield op, name


@functools.lru_cache(maxsize=None)
def _baseline(op: str, p: int):
    res = run_mpi(SCENARIOS[op], p, cost_model=FREE, engine=_engine(),
                  deadline=30.0)
    return res.values, res.counts


@pytest.mark.parametrize("p", (2, 3, 4, 8))
@pytest.mark.parametrize("op,name", list(_matrix_cases()))
def test_every_algorithm_matches_the_default(op, name, p):
    values, counts = _baseline(op, p)
    res = run_mpi(SCENARIOS[op], p, cost_model=FREE,
                  engine=_engine(overrides={op: name}), deadline=30.0)
    assert res.values == values
    # PMPI counts at the public layer are algorithm-independent
    assert res.counts == counts


@pytest.mark.parametrize("op,name", [(op, n) for op, names in HEADLINE.items()
                                     for n in names])
def test_headline_algorithms_at_sixteen_ranks(op, name):
    values, counts = _baseline(op, 16)
    res = run_mpi(SCENARIOS[op], 16, cost_model=FREE,
                  engine=_engine(overrides={op: name}), deadline=30.0)
    assert res.values == values
    assert res.counts == counts


def test_forced_algorithm_shows_up_in_the_trace():
    res = run_mpi(_scn_allgather, 4, cost_model=FREE, trace=True,
                  engine=_engine(overrides={"allgather": "ring"}))
    assert res.algorithms_used()["allgather"] == ("ring",)
    assert "allgather[ring]" in res.op_bytes(by_algorithm=True)


# ---------------------------------------------------------------------------
# engine selection semantics (no threads needed)
# ---------------------------------------------------------------------------


class TestEngineSelection:
    def test_default_policy_picks_seed_algorithms(self):
        eng = _engine()
        for op, name in SEED_DEFAULTS.items():
            assert eng.resolve(op, p=8).name == name

    def test_env_forcing_and_parse_errors(self):
        eng = CollectiveEngine(FREE, env={"REPRO_COLL_ALLGATHER": "ring"})
        assert eng.resolve("allgather", p=8).name == "ring"
        assert eng.resolve("bcast", p=8).name == "binomial"
        with pytest.raises(RawUsageError, match="unknown collective"):
            forced_from_env({"REPRO_COLL_FROB": "x"})
        with pytest.raises(RawUsageError, match="unknown algorithm"):
            CollectiveEngine(FREE, env={"REPRO_COLL_BCAST": "nope"})
        with pytest.raises(RawUsageError, match="unknown selection policy"):
            CollectiveEngine(FREE, env={"REPRO_COLL_POLICY": "magic"})

    def test_ctor_overrides_beat_env(self):
        eng = CollectiveEngine(FREE, env={"REPRO_COLL_ALLGATHER": "ring"},
                               overrides={"allgather": "gather_bcast"})
        assert eng.resolve("allgather", p=8).name == "gather_bcast"

    def test_forcing_beats_tuning_and_policy(self):
        eng = _engine(policy="costmodel", overrides={"alltoallv": "pairwise"})
        eng.tune("c", "alltoallv", algorithm="spread")
        assert eng.resolve("alltoallv", p=8, comm_id="c").name == "pairwise"

    def test_tuning_rules_first_match_by_size(self):
        eng = _engine()
        eng.tune("c", "bcast", rules=[(1024, "binomial"), (None, "linear")])
        assert eng.resolve("bcast", p=8, nbytes=100, comm_id="c").name == "binomial"
        assert eng.resolve("bcast", p=8, nbytes=4096, comm_id="c").name == "linear"
        # other communicators are untouched
        assert eng.resolve("bcast", p=8, nbytes=4096, comm_id="d").name == "binomial"
        assert eng.rules("c", "bcast") == ((1024, "binomial"), (None, "linear"))

    def test_tune_validates_eagerly(self):
        eng = _engine()
        with pytest.raises(RawUsageError, match="unknown algorithm"):
            eng.tune("c", "bcast", algorithm="nope")
        with pytest.raises(RawUsageError, match="exactly one"):
            eng.tune("c", "bcast")

    def test_rule_boundary_is_inclusive(self):
        # nbytes == max_bytes takes the rule: thresholds are inclusive upper
        # bounds, pinned here so installed tables and scoped rules agree on
        # who owns the boundary byte
        eng = _engine()
        eng.tune("c", "bcast", rules=[(1024, "binomial"), (None, "linear")])
        assert eng.resolve("bcast", p=8, nbytes=1024, comm_id="c").name == \
            "binomial"
        assert eng.resolve("bcast", p=8, nbytes=1025, comm_id="c").name == \
            "linear"
        assert eng.resolve("bcast", p=8, nbytes=0, comm_id="c").name == \
            "binomial"
        # a zero-threshold bucket still owns exactly nbytes == 0
        eng.tune("c", "bcast", rules=[(0, "linear"), (None, "binomial")])
        assert eng.resolve("bcast", p=8, nbytes=0, comm_id="c").name == "linear"
        assert eng.resolve("bcast", p=8, nbytes=1, comm_id="c").name == \
            "binomial"

    def test_rules_are_canonicalized_on_install(self):
        # Pre-fix, this unsorted list silently resolved first-match: the
        # catch-all shadowed the 1 KiB bucket for *every* call.  Install now
        # sorts (None last), so both buckets are live.
        eng = _engine()
        eng.tune("c", "bcast", rules=[(None, "linear"), (1024, "binomial")])
        assert eng.rules("c", "bcast") == ((1024, "binomial"), (None, "linear"))
        assert eng.resolve("bcast", p=8, nbytes=100, comm_id="c").name == \
            "binomial"
        assert eng.resolve("bcast", p=8, nbytes=4096, comm_id="c").name == \
            "linear"

    def test_overlapping_or_invalid_rules_are_rejected(self):
        eng = _engine()
        with pytest.raises(RawUsageError, match="duplicate max_bytes=1024"):
            eng.tune("c", "bcast",
                     rules=[(1024, "binomial"), (1024, "linear")])
        with pytest.raises(RawUsageError, match="duplicate catch-all"):
            eng.tune("c", "bcast",
                     rules=[(None, "binomial"), (None, "linear")])
        with pytest.raises(RawUsageError, match="must be >= 0"):
            eng.tune("c", "bcast", rules=[(-1, "binomial")])
        with pytest.raises(RawUsageError, match="must be int or None"):
            eng.tune("c", "bcast", rules=[(10.5, "binomial")])
        with pytest.raises(RawUsageError, match="empty tuning-rule list"):
            eng.tune("c", "bcast", rules=[])
        # nothing was installed by the failed attempts
        assert eng.rules("c", "bcast") is None

    def test_install_tuning_records_provenance(self):
        eng = _engine()
        eng.tune("c", "bcast", algorithm="linear")
        eng.tune("c", "reduce", "linear")
        assert eng.explain("bcast", p=8, comm_id="c").source == "tuned"
        d = eng.explain("reduce", p=8, comm_id="c")
        assert d.source == "tuned" and d.algorithm == "linear"
        assert d.rule == (None, "linear")
        assert eng.explain("bcast", p=8, comm_id="other").source == "default"
        forced = _engine(overrides={"bcast": "linear"})
        assert forced.explain("bcast", p=8).source == "forced"
        argmin = _engine(policy="costmodel")
        assert argmin.explain("allgather", p=8, nbytes=64).source == "costmodel"
        scoped = eng.explain("bcast", p=8, comm_id="c",
                             scoped=((None, "binomial"),))
        assert scoped.source == "scoped" and scoped.algorithm == "binomial"

    def test_explain_names_what_resolve_picks(self):
        eng = _engine()
        eng.tune("c", "bcast", "linear")
        calls = [("bcast", "c"), ("allgather", None)]
        decisions = [eng.explain(op, p=8, comm_id=comm_id)
                     for op, comm_id in calls]
        assert [(d.op, d.algorithm, d.source) for d in decisions] == [
            ("bcast", "linear", "tuned"),
            ("allgather", "bruck", "default"),
        ]
        assert [d.algorithm for d in decisions] == [
            eng.resolve(op, p=8, comm_id=comm_id).name
            for op, comm_id in calls]

    def test_size_sensitivity_gates_payload_sizing(self):
        # zero-overhead principle: the pure-default hot path never sizes
        eng = _engine()
        assert not eng.size_sensitive("allgather")
        # forced selection needs no size either
        forced = _engine(overrides={"allgather": "ring"})
        assert not forced.size_sensitive("allgather")
        # size-conditional tuning rules do
        eng.tune("c", "bcast", rules=[(1024, "binomial"), (None, "linear")])
        assert eng.size_sensitive("bcast", "c")
        # unconditional rules do not
        eng.tune("c", "allgather", algorithm="ring")
        assert not eng.size_sensitive("allgather", "c")
        # the cost-model policy always does
        assert _engine(policy="costmodel").size_sensitive("allgather")

    def test_costmodel_policy_argmin_with_default_tiebreak(self):
        eng = _engine(policy="costmodel")
        cm = eng.cost_model
        for op in HEADLINE:
            for p in (4, 16):
                for nbytes in (0, 64, 1 << 20):
                    picked = eng.resolve(op, p=p, nbytes=nbytes)
                    best = min(a.cost(p, nbytes, cm)
                               for a in algorithms.algorithms(op)
                               if a.cost is not None)
                    assert picked.cost(p, nbytes, cm) == best

    def test_costmodel_ties_keep_the_seed_default(self):
        # under the FREE model every formula evaluates to 0 ⇒ all ties
        eng = CollectiveEngine(FREE, policy="costmodel", env={})
        assert eng.cost_model is FREE
        for op in HEADLINE:
            assert eng.resolve(op, p=8, nbytes=4096).name == SEED_DEFAULTS[op]


def test_costmodel_policy_runs_end_to_end():
    res = run_mpi(_scn_alltoallv, 4, trace=True,
                  engine=CollectiveEngine(CostModel(), policy="costmodel",
                                          env={}))
    baseline = run_mpi(_scn_alltoallv, 4, engine=_engine())
    assert res.values == baseline.values
    # on a contention-free α-β model the argmin picks the spread schedule
    assert res.algorithms_used()["alltoallv"] == ("spread",)


def _hinted_calls(comm):
    """One call per size-hinted collective, on int32 payloads (so an item
    size taken as 8 shows) of a different length on each rank where the
    call allows it, then a bcast (no hint)."""
    r, p = comm.rank, comm.size
    comm.allgather(np.arange(5, dtype=np.int32))
    comm.allreduce(np.ones(7, np.int32), SUM)
    comm.allgatherv(np.full(r + 1, r, np.int32), list(range(1, p + 1)))
    counts = [r + 2 * d + 1 for d in range(p)]  # receives sum to another total
    comm.alltoallv(np.zeros(sum(counts), np.int32), counts,
                   [s + 2 * r + 1 for s in range(p)])
    comm.bcast(np.ones(9, np.int32) if r == 0 else None)


def test_costmodel_resolves_with_the_declared_hint(monkeypatch):
    """The ``nbytes`` ``RawComm._coll_algo`` hands the engine is what the
    call's trace event reports: ``recvd`` for a ``"recvcounts"`` hint, else
    ``sent``; a bcast (only the root knows its payload) resolves with 0."""
    from repro.mpi.collectives import COLLECTIVES

    eng = CollectiveEngine(CostModel(), policy="costmodel", env={})
    asked = []
    resolve = eng.resolve
    monkeypatch.setattr(
        eng, "resolve",
        lambda op, **kw: asked.append((op, kw["nbytes"])) or resolve(op, **kw))
    res = run_mpi(_hinted_calls, 4, engine=eng, trace=True)
    for op in ("allgather", "allreduce", "allgatherv", "alltoallv"):
        field = "recvd" if COLLECTIVES[op].hint == "recvcounts" else "sent"
        traced = sorted(getattr(e, field) for e in res.trace.all_events()
                        if e.op == op and e.algorithm is not None)
        assert len(traced) == 4 and min(traced) > 0
        assert sorted(n for o, n in asked if o == op) == traced, op
    assert [n for o, n in asked if o == "bcast"] == [0] * 4


# ---------------------------------------------------------------------------
# the decision memo: one engine decision per (op, communicator)
# ---------------------------------------------------------------------------


def _allgathers(comm, calls=3):
    return [list(comm.allgather(comm.rank)) for _ in range(calls)]


class TestDecisionMemo:
    """``RawComm._coll_algo`` asks the engine once per ``(op, comm_id)``
    where nothing else decides, and keeps the answer in
    ``CollectiveEngine.decided``."""

    def test_a_default_decision_is_asked_once_and_kept(self, monkeypatch):
        eng = _engine()
        asked = []
        resolve = eng.resolve
        monkeypatch.setattr(eng, "resolve",
                            lambda op, **kw: asked.append(op) or resolve(op, **kw))
        run_mpi(_allgathers, 4, engine=eng)
        # 12 calls; at most each rank's first asks (ranks race to fill it)
        assert 1 <= len(asked) <= 4 and set(asked) == {"allgather"}
        assert eng.decided == {("allgather", "world"): algorithms.get(
            "allgather", "bruck")}

    def test_installing_rules_drops_the_memo(self):
        eng = _engine()
        first = run_mpi(_allgathers, 4, engine=eng, trace=True)
        assert first.algorithms_used()["allgather"] == ("bruck",)
        eng.tune("world", "allgather", "ring")
        assert eng.decided == {}
        second = run_mpi(_allgathers, 4, engine=eng, trace=True)
        assert second.algorithms_used()["allgather"] == ("ring",)
        assert second.values == first.values

    def test_scoped_rules_bypass_the_memo(self):
        eng = _engine()

        def main(comm):
            before = comm.allgather(send_buf(np.int64(comm.rank)))
            with comm.use_algorithms(allgather="ring"):
                inside = comm.allgather(send_buf(np.int64(comm.rank)))
            after = comm.allgather(send_buf(np.int64(comm.rank)))
            return [np.asarray(x).tolist() for x in (before, inside, after)]

        res = run_kamping(main, 4, cost_model=FREE, trace=True, engine=eng)
        assert all(v == [list(range(4))] * 3 for v in res.values)
        events = [e.algorithm for e in res.trace.events_for(0)
                  if e.op == "allgather"]
        assert events == ["bruck", "ring", "bruck"]
        # the scoped call neither read nor wrote the memo
        assert eng.decided[("allgather", "world")].name == "bruck"

    def test_the_costmodel_policy_decides_every_call(self):
        eng = CollectiveEngine(CostModel(),
                               env={"REPRO_COLL_POLICY": "costmodel"})

        def main(comm):
            small = comm.allreduce(np.ones(1, np.int64), SUM)
            big = comm.allreduce(np.ones(1 << 17, np.int64), SUM)
            again = comm.allreduce(np.ones(1, np.int64), SUM)
            return int(small[0] + big[0] + again[0])

        res = run_mpi(main, 4, engine=eng, trace=True)
        assert res.values == [12] * 4
        events = [e.algorithm for e in res.trace.events_for(0)
                  if e.op == "allreduce"]
        assert events == ["recursive_doubling", "ring", "recursive_doubling"]
        assert eng.decided == {}

    def test_the_memo_never_changes_a_forced_algorithm(self):
        eng = _engine(overrides={"allgather": "ring"})
        res = run_mpi(_allgathers, 4, engine=eng, trace=True)
        assert eng.decided[("allgather", "world")].name == "ring"
        eng.tune("world", "allgather", "bruck")  # forced still wins
        again = run_mpi(_allgathers, 4, engine=eng, trace=True)
        for run in (res, again):
            assert run.algorithms_used()["allgather"] == ("ring",)

        def scoped(comm):
            with comm.use_algorithms(allgather="bruck"):
                return list(comm.allgather(send_buf(np.int64(comm.rank))))

        with_scope = run_kamping(scoped, 4, engine=eng, trace=True)
        assert with_scope.algorithms_used()["allgather"] == ("ring",)

    def test_the_fault_hook_sees_every_collective_call(self):
        seen = []

        class Spy(FaultCampaign):
            def on_collective(self, comm, op, algorithm):
                seen.append((comm.rank, op, algorithm))
                super().on_collective(comm, op, algorithm)

        eng = _engine()
        run_mpi(_allgathers, 4, engine=eng, faults=Spy())
        run_mpi(_allgathers, 4, engine=eng, faults=Spy())  # memo warm
        assert sorted(seen) == sorted(
            [(r, "allgather", "bruck") for r in range(4)] * 6)


# ---------------------------------------------------------------------------
# rank-local use_algorithms scoping (bindings layer)
# ---------------------------------------------------------------------------


class TestUseAlgorithms:
    def test_scoped_selection_and_restore(self):
        def main(comm):
            with comm.use_algorithms(allgather="ring"):
                inside = comm.allgather(send_buf(np.int64(comm.rank)))
            outside = comm.allgather(send_buf(np.int64(comm.rank)))
            return np.asarray(inside).tolist(), np.asarray(outside).tolist()

        res = run_kamping(main, 4, cost_model=FREE, trace=True,
                          engine=_engine())
        expected = list(range(4))
        assert all(v == (expected, expected) for v in res.values)
        assert res.algorithms_used()["allgather"] == ("bruck", "ring")

    def test_size_bucketed_rules(self):
        def main(comm):
            with comm.use_algorithms(
                    allgather=[(2 * 8, "ring"), (None, "gather_bcast")]):
                small = comm.allgather(send_buf(np.int64(comm.rank)))
                big = comm.allgather(
                    send_buf(np.full(64, comm.rank, dtype=np.int64)))
            return np.asarray(small).tolist(), len(big)

        res = run_kamping(main, 4, cost_model=FREE, trace=True,
                          engine=_engine())
        assert res.algorithms_used()["allgather"] == ("gather_bcast", "ring")

    def test_scoped_rules_are_canonicalized_too(self):
        # the same canonicalization tune applies: an unsorted
        # scope (catch-all written first) must not shadow the small bucket
        def main(comm):
            with comm.use_algorithms(
                    allgather=[(None, "gather_bcast"), (2 * 8, "ring")]):
                small = comm.allgather(send_buf(np.int64(comm.rank)))
                big = comm.allgather(
                    send_buf(np.full(64, comm.rank, dtype=np.int64)))
            return np.asarray(small).tolist(), len(big)

        res = run_kamping(main, 4, cost_model=FREE, trace=True,
                          engine=_engine())
        assert res.algorithms_used()["allgather"] == ("gather_bcast", "ring")

    def test_scoped_overlapping_rules_raise(self):
        def main(comm):
            with pytest.raises(UsageError, match="overlapping tuning rules"):
                with comm.use_algorithms(allgather=[(8, "ring"),
                                                    (8, "gather_bcast")]):
                    pass
            return True

        assert all(run_kamping(main, 2, cost_model=FREE).values)

    def test_nesting_restores_outer_selection(self):
        def main(comm):
            with comm.use_algorithms(allgather="ring"):
                with comm.use_algorithms(allgather="gather_bcast"):
                    comm.allgather(send_buf(np.int64(comm.rank)))
                comm.allgather(send_buf(np.int64(comm.rank)))
            return True

        res = run_kamping(main, 3, cost_model=FREE, trace=True,
                          engine=_engine())
        assert all(res.values)
        assert res.algorithms_used()["allgather"] == ("gather_bcast", "ring")

    def test_unknown_name_raises_bindings_usage_error(self):
        def main(comm):
            with pytest.raises(UsageError, match="unknown algorithm"):
                with comm.use_algorithms(allgather="nope"):
                    pass
            return True

        assert all(run_kamping(main, 2, cost_model=FREE).values)

    def test_scoping_is_per_communicator(self):
        def main(comm):
            sub = comm.dup()
            with comm.use_algorithms(allgather="ring"):
                sub.allgather(send_buf(np.int64(comm.rank)))
            return True

        res = run_kamping(main, 2, cost_model=FREE, trace=True,
                          engine=_engine())
        assert all(res.values)
        # the dup'd communicator kept the default (plus the management
        # allgather that dup itself performs on the parent)
        assert "ring" not in res.algorithms_used()["allgather"]


# ---------------------------------------------------------------------------
# golden-trace bit-compatibility: default engine ≡ seed algorithms
# ---------------------------------------------------------------------------


def test_default_engine_reproduces_seed_traces_bit_for_bit():
    def main(comm):
        v = np.arange(comm.rank + 1, dtype=np.int64)
        out = comm.allgatherv(send_buf(v))
        comm.allreduce(send_buf(np.arange(4, dtype=np.int64)), op_param(SUM))
        return out.tolist()

    # "legacy" pins every collective to the seed algorithm explicitly;
    # the default engine must make the exact same choices
    legacy = run_kamping(main, 4, trace=True,
                         engine=_engine(overrides=dict(SEED_DEFAULTS)))
    default = run_kamping(main, 4, trace=True, engine=_engine())
    assert default.values == legacy.values
    assert default.times == legacy.times
    assert default.counts == legacy.counts
    assert default.comm_seconds == legacy.comm_seconds
    for r in range(4):
        assert default.trace.events_for(r) == legacy.trace.events_for(r)
    assert default.chrome_trace() == legacy.chrome_trace()


# ---------------------------------------------------------------------------
# singleton (p=1) fast paths: zero p2p traffic, zero virtual time
# ---------------------------------------------------------------------------


def _singleton_scenarios():
    for op in sorted(SCENARIOS):
        yield op


@pytest.mark.parametrize("op", list(_singleton_scenarios()))
def test_singleton_fast_path_is_commfree(op):
    def main(comm):
        with expect_calls(comm, **{o: c for o, c in _expected_counts(op)}):
            return SCENARIOS[op](comm)

    res = run_mpi(main, 1, engine=_engine())  # default CostModel: α,β > 0
    assert res.comm_seconds == [0.0]
    if op != "alltoallw":  # keeps its derived-datatype compute penalty
        assert res.times == [0.0]
    else:
        assert res.times[0] > 0.0


def _expected_counts(op):
    # every scenario issues only its own collective; bcast/barrier issue >1
    return {"barrier": [("barrier", 2)], "bcast": [("bcast", 3)],
            "reduce": [("reduce", 2)], "allreduce": [("allreduce", 2)],
            }.get(op, [(op, 1)])


def test_singleton_wins_over_forced_selection():
    res = run_mpi(_scn_bcast, 1,
                  engine=_engine(overrides={"bcast": "scatter_allgather"}))
    assert res.comm_seconds == [0.0]
    assert res.times == [0.0]


def test_singleton_preserves_legacy_validation():
    # the fast path still validates arguments the way the real algorithms do
    def bad_counts(comm):
        with pytest.raises(RawUsageError, match="length 1"):
            comm.gatherv(np.arange(3, dtype=np.int64), [1, 2], 0)
        return True

    def bad_root(comm):
        with pytest.raises(RawUsageError, match="out of range"):
            comm.bcast("x", 5)
        return True

    assert all(run_mpi(bad_counts, 1, engine=_engine()).values)
    assert all(run_mpi(bad_root, 1, engine=_engine()).values)
