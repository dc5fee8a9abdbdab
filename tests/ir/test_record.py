"""Recording: the journaled epoch is a faithful, aligned transcript."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mpi import run_mpi
from repro.mpi.ir import UnsupportedForIR, values_equal
from repro.mpi.ops import SUM


def _mixed_program(raw):
    comm_rank = raw.rank
    total = raw.allreduce(comm_rank, SUM)
    raw.compute(1e-6)
    if comm_rank == 0:
        raw.send(np.arange(4), 1, tag=3)
    if comm_rank == 1:
        payload, status = raw.recv(-1, -1)  # wildcard source and tag
        assert status.source == 0
    gathered = raw.gather(comm_rank * 2, 0)
    return total, gathered


def test_record_mode_attaches_epoch_and_preserves_values():
    res = run_mpi(_mixed_program, 4, ir="record")
    ref = run_mpi(_mixed_program, 4)
    assert [v[0] for v in res.values] == [v[0] for v in ref.values]
    epoch = res.ir.epoch
    assert res.ir.mode == "record"
    assert epoch.num_ranks == 4
    # every rank recorded: allreduce, compute, gather (+ p2p on ranks 0/1)
    ops0 = [n.op for n in epoch.ops[0]]
    assert ops0 == ["allreduce", "compute", "send", "gather"]
    ops2 = [n.op for n in epoch.ops[2]]
    assert ops2 == ["allreduce", "compute", "gather"]


def test_collective_instances_align_across_ranks():
    res = run_mpi(_mixed_program, 4, ir="record")
    inst = res.ir.epoch.instances()
    # allreduce is (world, 0), gather is (world, 1) on every rank
    assert set(inst[("world", 0)]) == {0, 1, 2, 3}
    assert set(inst[("world", 1)]) == {0, 1, 2, 3}
    assert all(n.op == "allreduce" for _, n in inst[("world", 0)].values())
    assert all(n.op == "gather" for _, n in inst[("world", 1)].values())


def test_wildcard_recv_backpatches_matched_envelope():
    res = run_mpi(_mixed_program, 4, ir="record")
    recv = next(n for n in res.ir.epoch.ops[1] if n.op == "recv")
    assert recv.args["source"] == -1 and recv.args["tag"] == -1
    assert recv.args["matched_source"] == 0
    assert recv.args["matched_tag"] == 3
    payload, status = recv.result
    assert values_equal(payload, np.arange(4))


def test_recorded_results_are_snapshots():
    def mutator(raw):
        buf = np.zeros(4)
        out = raw.allgather(buf)
        buf += 99  # mutation after the call must not leak into the journal
        return out

    res = run_mpi(mutator, 2, ir="record")
    node = res.ir.epoch.ops[0][0]
    assert values_equal(node.payload, np.zeros(4))


def test_dependency_edges_track_produced_payloads():
    def chain(raw):
        counts = raw.alltoall([1] * raw.size)
        return raw.alltoallv(np.arange(raw.size, dtype=np.int64),
                             [1] * raw.size, counts)

    res = run_mpi(chain, 3, ir="record")
    a2a, a2av = res.ir.epoch.ops[0]
    assert a2av.deps == (a2a.idx,)


def test_count_vectors_are_inputs_of_every_v_collective():
    """scatterv's count vector is tracked like gatherv's and alltoallv's."""
    def program(raw):
        counts = raw.bcast([1, 2] if raw.rank == 0 else None, 0)
        buf = np.arange(3, dtype=np.int64) if raw.rank == 0 else None
        raw.scatterv(buf, counts if raw.rank == 0 else None, 0)
        return raw.gatherv(np.full(counts[raw.rank], raw.rank),
                           counts if raw.rank == 0 else None, 0)

    res = run_mpi(program, 2, ir="record")
    bcast, scatterv, gatherv = res.ir.epoch.ops[0]
    assert scatterv.deps == (bcast.idx,)
    assert gatherv.deps == (bcast.idx,)


def test_dependency_edges_survive_recycled_object_ids():
    """The journal holds a snapshot of a result, not the object: dropping the
    object must not let a later payload that reuses its id inherit the edge."""
    def program(raw):
        counts = raw.bcast([1, 1] if raw.rank == 0 else None, 0)
        out = raw.scatterv(np.arange(2) if raw.rank == 0 else None,
                           counts if raw.rank == 0 else None, 0)
        del out
        rc = raw.bcast([1, 1] if raw.rank == 0 else None, 0)
        return raw.gatherv(np.array([raw.rank]),
                           rc if raw.rank == 0 else None, 0)

    res = run_mpi(program, 2, ir="record")
    deps = [n.deps for n in res.ir.epoch.ops[0]]
    assert deps == [(), (0,), (), (2,)]


def test_nonroot_ibcast_journals_no_payload():
    """Off the root the buffer passed to a broadcast is a placeholder, not an
    input: ``ibcast`` journals ``None`` there exactly like ``bcast``."""
    def program(raw, start):
        data = np.arange(4) if raw.rank == 0 else np.zeros(4, dtype=int)
        out = getattr(raw, start)(data, 0)
        return out.wait() if start == "ibcast" else out

    for start in ("bcast", "ibcast"):
        res = run_mpi(program, 2, args=(start,), ir="record")
        root_node, other_node = (res.ir.epoch.ops[r][0] for r in (0, 1))
        assert values_equal(root_node.payload, np.arange(4))
        assert other_node.payload is None


def test_nonblocking_ops_record_start_and_wait_nodes():
    def nbc(raw):
        req = raw.iallreduce(raw.rank, SUM)
        raw.compute(1e-6)
        return req.wait()

    res = run_mpi(nbc, 2, ir="record")
    kinds = [(n.kind, n.op) for n in res.ir.epoch.ops[0]]
    assert kinds == [("nbc", "iallreduce"), ("local", "compute"),
                     ("wait", "wait")]
    wait = res.ir.epoch.ops[0][2]
    assert wait.args["start"] == 0 and wait.deps == (0,)


def test_recorded_epoch_is_spmd_consistent():
    """A symmetric program records the same collective sequence — op, root,
    reduction — on every rank: the dynamic analog of reprolint's RPL101-103
    checks."""
    res = run_mpi(_mixed_program, 4, ir="record")
    epoch = res.ir.epoch
    seqs = {tuple((n.op, n.args.get("root"), n.args.get("op"))
                  for n in epoch.ops[w] if n.kind == "coll")
            for w in range(4)}
    assert seqs == {(("allreduce", None, SUM), ("gather", 0, None))}
    send = next(n for n in epoch.ops[0] if n.op == "send")
    assert (send.args["dest"], send.args["tag"]) == (1, 3)


def test_probe_marks_epoch_unsupported():
    def prober(raw):
        if raw.rank == 0:
            raw.send(5, 1)
        if raw.rank == 1:
            raw.probe(0)
            return raw.recv(0)[0]
        return None

    res = run_mpi(prober, 2, ir="record")
    assert "probe" in res.ir.epoch.unsupported
    with pytest.raises(UnsupportedForIR, match="probe"):
        run_mpi(prober, 2, ir="optimize")


def test_derived_communicators_are_recorded_and_journaled():
    def splitter(raw):
        half = raw.split(raw.rank % 2)
        return half.allreduce(1, SUM)

    res = run_mpi(splitter, 4, ir="record")
    epoch = res.ir.epoch
    mgmt = next(n for n in epoch.ops[0] if n.kind == "mgmt")
    assert mgmt.op == "comm_split"
    sub_allreduce = next(n for n in epoch.ops[0] if n.op == "allreduce")
    assert sub_allreduce.comm == mgmt.args["new_comm"]
    assert epoch.members[mgmt.args["new_comm"]] == (0, 2)
    assert res.values == [2, 2, 2, 2]
