"""IR test fixtures.

IR tests that assert passes *fire* must run under an engine with an empty
environment: the CI algorithm matrix forces algorithms via ``REPRO_COLL_*``,
and a forced non-binomial reduce legitimately (and correctly) disables the
fusion passes — the rewrites are only sound over the recorded schedules.
"""

from __future__ import annotations

import pytest

from repro.mpi.engine import CollectiveEngine
from repro.mpi.ir import passes
from repro.mpi.ir.nodes import Epoch


@pytest.fixture(params=[
    "thread",
    pytest.param("process", marks=pytest.mark.slow),
])
def backend(request) -> str:
    """Both execution backends; the process lane rides the slow marker."""
    return request.param


@pytest.fixture
def clean_engine() -> CollectiveEngine:
    """An engine blind to ``REPRO_COLL_*`` (deterministic recorded schedules)."""
    return CollectiveEngine(env={})


def _stamps(epoch: Epoch) -> dict:
    """``(comm, seq) -> {world rank: (idx, ir_pass)}``: which node stands for
    each collective instance on each rank, and who last wrote it."""
    return {key: {w: (node.idx, node.ir_pass) for w, (_, node) in inst.items()}
            for key, inst in epoch.instances().items()}


def assert_well_formed(before: dict, after: Epoch) -> None:
    """What every pass must leave behind, whatever it matched.

    On every rank ``idx`` values are unique and every dep names a node that
    sits *earlier* on that rank (no self, dangling or forward edge); and a
    ``(comm, seq)`` instance of ``before`` (the :func:`_stamps` taken ahead
    of the pass) is rewritten — replaced, absorbed or re-stamped — on all of
    its communicator's member ranks or on none.
    """
    for w, nodes in enumerate(after.ops):
        seen: set = set()
        for node in nodes:
            assert node.idx not in seen, f"rank {w}: idx {node.idx} twice"
            assert set(node.deps) <= seen, (
                f"rank {w}: {node.op} idx={node.idx} deps={node.deps} name "
                f"no earlier node (earlier: {sorted(seen)})")
            seen.add(node.idx)
    now = _stamps(after)
    for (comm, seq), stamps in before.items():
        rewritten = {w for w, stamp in stamps.items()
                     if now.get((comm, seq), {}).get(w) != stamp}
        assert not rewritten or rewritten == set(after.members[comm]), (
            f"comm={comm!r} seq={seq} rewritten on ranks {sorted(rewritten)} "
            f"of {after.members[comm]}")


@pytest.fixture(autouse=True)
def well_formed_after_each_pass(monkeypatch):
    """Follow every pass a test in this directory runs — directly, through
    ``PassManager`` or under ``ir="optimize"`` — with the graph check."""
    def checked(run_pass):
        def run(epoch):
            before = _stamps(epoch)
            result = run_pass(epoch)
            assert_well_formed(before, epoch)
            return result
        return run

    for name, run_pass in passes.PASSES.items():
        monkeypatch.setitem(passes.PASSES, name, checked(run_pass))
