"""Learned tuning tables: sweep → synthesize → install → persist.

Engines are always constructed with ``env={}`` where selections are
asserted: the CI algorithm matrix forces ``REPRO_COLL_*`` schedules, and a
learned table must be compared against the real seed defaults, not the
forced lane.
"""

from __future__ import annotations

import json

import pytest

from repro.mpi import (
    AutoTuner,
    CollectiveEngine,
    CostModel,
    RawUsageError,
    run_mpi,
)
from repro.mpi.collectives import COLLECTIVES
from repro.mpi.machine import WORLD_ID

CM = CostModel()


# -- sweeping -----------------------------------------------------------------


def test_sweep_hint_is_what_a_traced_sweep_call_reports():
    """``_hint_bytes`` follows the declared hint convention: each sweep
    workload's trace event carries it (``recvd`` for a ``"recvcounts"``
    hint, else ``sent``), and an op that declares no hint (only the root
    knows a bcast's payload) selects with 0."""
    from repro.mpi.autotune import SWEEP_WORKLOADS, _hint_bytes

    for op, workload in SWEEP_WORKLOADS.items():
        res = run_mpi(workload, 4, args=(16,), cost_model=CM, trace=True,
                      engine=CollectiveEngine(CM, env={}))
        events = [e for e in res.trace.all_events() if e.algorithm is not None]
        assert {e.op for e in events} == {op}
        field = "recvd" if COLLECTIVES[op].hint == "recvcounts" else "sent"
        assert max(getattr(e, field) for e in events) == _hint_bytes(op, 4, 16)
    assert _hint_bytes("alltoallv", 4, 16) == 4 * _hint_bytes("allgather", 4, 16)
    assert _hint_bytes("bcast", 4, 16) == 0


def test_harvest_validates_algorithm_names():
    tuner = AutoTuner()
    with pytest.raises(RawUsageError, match="unknown algorithm"):
        tuner.add_sample("allreduce", "nope", 4, 128, 1e-6)
    with pytest.raises(RawUsageError, match="no sweep workload"):
        tuner.sweep(ops=("bcast",))


# -- table synthesis ----------------------------------------------------------


def test_table_buckets_the_measured_crossover():
    tuner = AutoTuner(cost_model=CM)
    tuner.sweep(ops=("allreduce",), ps=(4,), widths=(16, 1024, 65536))
    table = tuner.table()
    rules = table["allreduce"][4]
    # seed crossover on the default model: recursive_doubling for small
    # payloads, ring for huge ones; the boundary falls at the geometric
    # midpoint of the largest two swept sizes
    assert rules[0][1] == "recursive_doubling"
    assert rules[-1] == (None, "ring")
    assert rules[0][0] == int((1024 * 8 * 65536 * 8) ** 0.5)
    assert 16 not in table["allreduce"]  # never measured
    assert "bcast" not in table


def test_install_and_explain_learned():
    tuner = AutoTuner(cost_model=CM)
    tuner.sweep(ops=("allreduce",), ps=(4,), widths=(16, 1024, 65536))
    engine = CollectiveEngine(CM, env={})
    assert tuner.install(engine, p=4) == 1
    small = engine.explain("allreduce", p=4, nbytes=128, comm_id=WORLD_ID)
    assert small.source == "learned"
    assert small.algorithm == "recursive_doubling"
    big = engine.explain("allreduce", p=4, nbytes=1 << 20, comm_id=WORLD_ID)
    assert big.source == "learned" and big.algorithm == "ring"
    # explain() and resolve() agree
    assert engine.resolve("allreduce", p=4, nbytes=128,
                          comm_id=WORLD_ID).name == small.algorithm
    # installing for a p that was never measured is a no-op
    assert tuner.install(CollectiveEngine(CM, env={}), p=16) == 0


# -- persistence round-trip ---------------------------------------------------


def test_learned_table_round_trip(tmp_path):
    """sweep → persist → reload in a fresh engine → explain() shows
    source="learned" and the decision matches."""
    path = tmp_path / "learned.json"
    tuner = AutoTuner(path=path, cost_model=CM)
    tuner.sweep(ops=("allreduce",), ps=(4,), widths=(16, 1024, 65536))
    assert tuner.save() == path

    reloaded = AutoTuner.load(path)
    # bit-identical: same samples → same synthesized rules, exactly
    assert reloaded.table() == tuner.table()
    assert [s.key() for s in sorted(reloaded.samples, key=lambda s: s.key())] \
        == [s.key() for s in sorted(tuner.samples, key=lambda s: s.key())]

    fresh = CollectiveEngine(CM, env={})
    assert reloaded.install(fresh, p=4) == 1
    original = CollectiveEngine(CM, env={})
    tuner.install(original, p=4)
    for nbytes in (0, 128, 8192, 1 << 19, 1 << 24):
        want = original.explain("allreduce", p=4, nbytes=nbytes,
                                comm_id=WORLD_ID)
        got = fresh.explain("allreduce", p=4, nbytes=nbytes,
                            comm_id=WORLD_ID)
        assert got == want
        assert got.source == "learned"
    # the persisted table in the file equals what both engines installed
    stored = json.loads(path.read_text())
    assert set(stored) == {"version", "samples", "table"}
    stored_rules = [tuple(r) for r in stored["table"]["allreduce"]["4"]]
    assert tuple(stored_rules) == fresh.rules(WORLD_ID, "allreduce")


def test_bad_store_versions_are_rejected(tmp_path):
    path = tmp_path / "bad.json"
    for version in (999, 1):  # 1: the store that carried an α-β fit
        path.write_text(json.dumps({"version": version, "samples": []}))
        with pytest.raises(RawUsageError, match="unsupported autotune store"):
            AutoTuner.load(path)
    with pytest.raises(RawUsageError, match="needs a path"):
        AutoTuner().save()
