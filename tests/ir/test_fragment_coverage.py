"""Fragment-table coverage: payload-dependent algorithms are marked unsound.

Regression suite for the ROADMAP-noted blind spot: ring allreduce's schedule
depends on an *eligibility branch* (commutative op + 1-D ndarray with >= p
elements, else silent fallback to reduce_bcast), so no static
``(p, rank, root)`` fragment can describe it.  Before this fix the fragment
table just had a hole there — indistinguishable from "not written yet", and
one well-meaning contribution away from handing the fuse passes a schedule
that is wrong for every small payload.  Now the algorithm is explicitly
marked :data:`~repro.mpi.ir.fragments.UNSOUND` and the branch behavior is
pinned against the seed.  Since fragments are derived by co-running the
schedules under witness arguments the marking matters more, not less: an
integer witness would take the fallback branch and pass it off as the ring.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.mpi import CollectiveEngine, CostModel, SUM, algorithms, run_mpi
from repro.mpi.ir.fragments import (
    UNSOUND,
    FragmentUnsound,
    fragment,
    fragment_soundness,
    has_fragment,
)

P = 4


def test_ring_allreduce_is_marked_unsound():
    assert fragment_soundness("allreduce", "ring") == "unsound"
    assert not has_fragment("allreduce", "ring")
    with pytest.raises(FragmentUnsound, match="payload-dependent"):
        fragment("allreduce", "ring", P, 0)
    # opaque-algorithm handling must keep working: FragmentUnsound IS a
    # KeyError, exactly what callers already catch for unmapped algorithms
    with pytest.raises(KeyError):
        fragment("allreduce", "ring", P, 0)


def test_unsound_and_static_tables_are_disjoint():
    for op, name in UNSOUND:
        assert not has_fragment(op, name)
        with pytest.raises(FragmentUnsound):
            algorithms.get(op, name).fragment(P, 0)


def test_every_registered_algorithm_has_a_soundness_status():
    for op in algorithms.collectives():
        for algo in algorithms.algorithms(op):
            status = fragment_soundness(op, algo.name)
            assert status in ("static", "unsound"), (op, algo.name)
            assert has_fragment(op, algo.name) == (status == "static")
            assert (status == "unsound") == ((op, algo.name) in UNSOUND)


def _allreduce_times(algo_name: str, width: int) -> list[float]:
    """Virtual per-rank times of a forced-algorithm allreduce at ``width``."""
    def workload(comm):
        comm.allreduce(np.arange(width, dtype=np.int64) + comm.rank, SUM)

    engine = CollectiveEngine(
        CostModel(), overrides={"allreduce": algo_name}, env={})
    res = run_mpi(workload, P, cost_model=CostModel(), engine=engine)
    assert not res.failed
    return res.times


def test_seed_pinned_eligibility_branch():
    """The branch that makes the fragment unsound, pinned as seed behavior.

    Small payloads (fewer elements than ranks) make forced ring fall back to
    reduce_bcast — bit-identical virtual schedules — while large payloads
    run the genuinely different ring pipeline.  If either half of this test
    starts failing, the eligibility branch moved and the UNSOUND marking
    (plus the ring cost formula's small-payload arm) must be revisited."""
    small = P - 1  # fewer elements than ranks: ring refuses, falls back
    assert _allreduce_times("ring", small) == \
        _allreduce_times("reduce_bcast", small)
    large = 64
    assert _allreduce_times("ring", large) != \
        _allreduce_times("reduce_bcast", large)
