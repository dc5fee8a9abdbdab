"""Every caller of the bucket kernel against the argsort path it replaced.

``sorter.bucket`` sorts a block once and cuts it at the splitters; the
argsort path groups the keys by bucket in input order.
Each program runs once as shipped and once with the kernel swapped for the
argsort path: outputs, per-rank clocks, compute seconds, PMPI counts and
traced ``op_bytes`` must match exactly.
"""

import numpy as np
import pytest

from repro.apps.sorting import SAMPLE_SORT_IMPLS, common, sort_checked
from repro.apps.suffix import (
    prefix_doubling_kamping,
    prefix_doubling_mpi,
    random_text,
)
from repro.apps.suffix.common import local_block
from repro.containers import DistributedArray
from repro.core import Communicator, extend
from repro.plugins import DistributedSorter, sorter
from tests.conftest import argsort_bucket, runk, runp

SortComm = extend(Communicator, DistributedSorter)


def fingerprint(res):
    values = [(a.dtype.str, a.tobytes()) for a in map(np.asarray, res.values)]
    return (values, res.times, res.compute_seconds, res.counts,
            res.op_bytes())


def assert_matches_argsort_path(monkeypatch, run):
    calls = []

    def reference(keys, splitters):
        calls.append(len(keys))
        return argsort_bucket(keys, splitters)

    shipped = fingerprint(run())
    with monkeypatch.context() as m:
        m.setattr(sorter, "bucket", reference)
        m.setattr(common, "bucket", reference)
        oracle = fingerprint(run())
    assert calls, "the program never reached the bucket kernel"
    assert shipped == oracle


@pytest.mark.parametrize("binding", list(SAMPLE_SORT_IMPLS))
@pytest.mark.parametrize("p", [1, 3, 4])
def test_fig8_bindings(monkeypatch, binding, p):
    def main(raw):
        rng = np.random.default_rng(raw.rank + 3)
        return sort_checked(raw, rng.integers(0, 500, size=1200), binding)

    assert_matches_argsort_path(monkeypatch,
                                lambda: runp(main, p, trace=True))


def sorter_block(kind, rank):
    rng = np.random.default_rng(rank)
    if kind == "float64":
        nans = np.array([0x7FF8000000000001, 0x7FF8000000000002],
                        dtype=np.uint64).view(np.float64)
        pool = np.concatenate([[0.0, -0.0, 1.5, -1.5, 2.0], nans])
        return rng.choice(pool, 600)
    if kind == "bool":
        return rng.integers(0, 2, size=600).astype(bool)
    if kind == "empty_block" and rank == 2:
        return np.empty(0, dtype=np.int64)
    dtype = np.uint8 if kind == "uint8" else np.int64
    return rng.integers(0, 200, size=600).astype(dtype)


@pytest.mark.parametrize("kind",
                         ["int64", "uint8", "bool", "float64", "empty_block"])
def test_distributed_sorter(monkeypatch, kind):
    def main(comm):
        return comm.sort(sorter_block(kind, comm.rank))

    assert_matches_argsort_path(
        monkeypatch, lambda: runk(main, 4, comm_class=SortComm, trace=True))


@pytest.mark.parametrize("variant", [prefix_doubling_kamping,
                                     prefix_doubling_mpi])
def test_prefix_doubling(monkeypatch, variant):
    text = random_text(240, sigma=3, seed=13)

    def main(comm):
        blk = local_block(text, 4, comm.rank)
        if variant is prefix_doubling_mpi:
            return variant(comm.raw, blk, len(text))
        return variant(comm, blk, len(text))

    assert_matches_argsort_path(monkeypatch,
                                lambda: runk(main, 4, trace=True))


def test_distributed_array_sort(monkeypatch):
    def main(comm):
        rng = np.random.default_rng(comm.rank)
        local = rng.integers(0, 99, 300)
        return DistributedArray.from_local(comm, local).sort().local

    assert_matches_argsort_path(monkeypatch,
                                lambda: runk(main, 4, trace=True))
