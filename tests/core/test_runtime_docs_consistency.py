"""Repository self-checks: public API completeness and docstring coverage.

A downstream user's first contact is ``repro.core``'s public surface; these
tests keep it coherent — everything in ``__all__`` importable, every public
callable documented, the op-spec table consistent with the methods it backs.
"""

import inspect
import re

import pytest

import repro
import repro.core as core
import repro.mpi as mpi
import repro.plugins as plugins
from repro.core.communicator import SPECS, Communicator


def test_core_all_exports_exist():
    for name in core.__all__:
        assert hasattr(core, name), name


def test_mpi_all_exports_exist():
    for name in mpi.__all__:
        assert hasattr(mpi, name), name


def test_plugins_all_exports_exist():
    for name in plugins.__all__:
        assert hasattr(plugins, name), name


def test_top_level_exports():
    assert repro.run_mpi is mpi.run_mpi
    assert repro.Communicator is core.Communicator


def test_every_spec_backs_a_method():
    for name in SPECS:
        if name == "barrier":
            continue
        assert hasattr(Communicator, name), f"spec {name} has no method"


def test_every_declared_collective_matches_what_it_describes():
    """The raw-layer twin of the spec check: a declaration in
    ``repro.mpi.collectives`` names the parameters of the ``RawComm`` (or
    ``RawWindow``) method, of every registered schedule and of the p = 1 fast
    path, and the op sets computed from the tables are the ones that used to
    be written out."""
    from repro.mpi import algorithms, autotune, faultinject
    from repro.mpi.collectives import COLLECTIVES, NONBLOCKING

    def params(fn, skip):
        return tuple(inspect.signature(fn).parameters)[skip:]

    assert tuple(sorted(COLLECTIVES)) == algorithms.collectives()
    for name, call in COLLECTIVES.items():
        assert call.name == name
        assert params(getattr(mpi.RawComm, name), 1) == call.params  # self
        for algo in algorithms.algorithms(name):  # after (p, rank)
            assert params(algo.schedule, 2) == call.params, algo.name
        singleton = algorithms.SINGLETON.get(name)
        if singleton is not None:  # after comm
            assert params(singleton.fn, 1) == call.params
        roles = (call.contributes, call.receives, call.peers)
        if "root" in roles or "nonroot" in roles:
            assert call.params[-1] == "root"
        if call.hint not in (None, "payload"):
            assert call.hint in call.params and call.hint.endswith("counts")
    assert sorted(NONBLOCKING) == ["iallgather", "iallreduce", "ibarrier",
                                   "ibcast"]
    for name, call in NONBLOCKING.items():
        assert params(getattr(mpi.RawComm, name), 1) == call.params

    assert faultinject.OP_CATEGORIES["collective"] == {
        "barrier", "ibarrier", "bcast", "ibcast", "gather", "gatherv",
        "scatter", "scatterv", "allgather", "iallgather", "allgatherv",
        "alltoall", "alltoallv", "alltoallw", "reduce", "allreduce",
        "iallreduce", "scan", "exscan", "neighbor_alltoall",
        "neighbor_alltoallv",
    }
    size_hinted = {c.name for c in COLLECTIVES.values() if c.hint is not None}
    assert size_hinted == {
        "allgather", "allgatherv", "allreduce", "alltoall", "alltoallv",
        "gather", "gatherv", "reduce", "scan", "exscan",
        "alltoallw",  # hinted in RawComm all along; one algorithm: inert
    }
    assert set(autotune.SWEEP_WORKLOADS) <= size_hinted

    # every other raw call: the parameters of the method it names, the
    # counter that method counts under, and its return type
    from repro.analysis import signatures
    from repro.mpi.collectives import CALLS
    from repro.mpi.ir.nodes import CommOp
    from repro.mpi.ir.recorder import RecordingComm
    from repro.mpi.rma import RawWindow

    for name, call in CALLS.items():
        assert call.name == name
        fn = getattr(RawWindow if call.window else mpi.RawComm, call.method)
        assert params(fn, 1) == call.params, name
        counted = re.findall(r'_count\("(\w+)"\)', inspect.getsource(fn))
        assert counted == [name] or (counted == [] and name == call.method)
        returns = inspect.signature(fn).return_annotation
        assert call.request == returns.endswith("Request"), name
        assert set(call.receives) <= set(call.params)
        if not call.window:  # journalled by one generated override
            assert getattr(RecordingComm, call.method).__module__ == (
                "repro.mpi.ir.recorder")
    assert {n for n, c in CALLS.items() if not c.replay} == {
        "probe", "iprobe", "win_create", "win_fence", "win_lock",
        "win_unlock", "win_put", "win_get", "win_accumulate",
        "win_fetch_and_op", "win_compare_and_swap", "win_free", "kill_self",
        "comm_revoke", "comm_shrink", "comm_agree"}

    # the op sets derived from the table are the ones once written out
    assert faultinject.OP_CATEGORIES["send"] == {"send", "ssend", "isend",
                                                 "issend"}
    assert faultinject.OP_CATEGORIES["recv"] == {"recv", "irecv", "probe",
                                                 "iprobe"}
    assert faultinject.OP_CATEGORIES["rma"] == {
        "win_create", "win_fence", "win_lock", "win_unlock", "win_put",
        "win_get", "win_accumulate", "win_fetch_and_op",
        "win_compare_and_swap", "win_free"}
    assert signatures.SEND_METHODS == {"send", "ssend", "isend", "issend"}
    assert signatures.RECV_METHODS == {"recv", "irecv"}
    events = {op: CommOp(0, 0, "p2p", op, args={"dest": 1, "source": 1})
              .static_event() for op in CALLS}
    assert {op for op, e in events.items() if e and e.kind == "send"} == {
        "send", "ssend", "isend", "issend"}
    assert {op for op, e in events.items() if e and e.kind == "recv"} == {
        "recv", "irecv"}


def test_run_keywords_match_run_mpi_and_the_backends():
    """One keyword surface: ``repro.core.run`` is ``run_mpi`` plus
    ``comm_class``, and every backend's ``run`` is ``run_mpi`` minus the
    two settings ``run_mpi`` resolves itself, so a setting retired in one
    place is retired in all of them."""
    from repro.core.runner import run
    from repro.mpi.backends import Backend, ProcessBackend, ThreadBackend

    def keywords(fn):
        return {name for name, p in inspect.signature(fn).parameters.items()
                if p.kind is inspect.Parameter.KEYWORD_ONLY}

    raw = keywords(mpi.run_mpi)
    assert keywords(run) == raw | {"comm_class"}
    for backend in (Backend, ThreadBackend, ProcessBackend):
        assert keywords(backend.run) == raw - {"backend", "ir"}, (
            backend.__name__)


def test_every_wrapped_method_documented():
    for name in SPECS:
        method = getattr(Communicator, name, None)
        if method is None:
            continue
        assert method.__doc__, f"{name} lacks a docstring"


def test_public_core_callables_documented():
    undocumented = []
    for name in core.__all__:
        obj = getattr(core, name)
        if callable(obj) and not isinstance(obj, type):
            if not (obj.__doc__ or "").strip():
                undocumented.append(name)
    assert not undocumented, undocumented


def test_public_classes_documented():
    undocumented = []
    for module in (core, mpi, plugins):
        for name in module.__all__:
            obj = getattr(module, name)
            if isinstance(obj, type) and not (obj.__doc__ or "").strip():
                undocumented.append(f"{module.__name__}.{name}")
    assert not undocumented, undocumented


def test_spec_out_keys_are_registered_parameters():
    from repro.core.parameters import is_registered

    for spec in SPECS.values():
        for key in (*spec.required, *spec.optional, *spec.out_allowed,
                    *spec.implicit_out):
            assert is_registered(key), (spec.name, key)


def test_conflict_pairs_reference_known_keys():
    for spec in SPECS.values():
        for present, forbidden, reason in spec.conflicts:
            assert present in spec.allowed
            assert forbidden in spec.allowed
            assert reason


def test_version_string():
    assert repro.__version__.count(".") == 2
