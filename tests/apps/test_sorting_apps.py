"""Table I / Fig. 7 / Fig. 8 applications: vector allgather and sample sort
in all five binding styles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.sorting import SAMPLE_SORT_IMPLS, VECTOR_ALLGATHER_IMPLS, sort_checked
from repro.apps.sorting.common import is_globally_sorted
from repro.loc import loc_table, logical_loc
from repro.perf.sweep import samplesort_sweep
from tests.conftest import runp

BINDINGS = list(VECTOR_ALLGATHER_IMPLS)


@pytest.mark.parametrize("binding", BINDINGS)
@pytest.mark.parametrize("p", [1, 3, 4, 8])
def test_vector_allgather_all_bindings(binding, p):
    impl, wrap = VECTOR_ALLGATHER_IMPLS[binding]

    def main(raw):
        v = np.arange(raw.rank + 1, dtype=np.int64)
        return impl(wrap(raw), v).tolist()

    expected = [x for i in range(p) for x in range(i + 1)]
    assert all(v == expected for v in runp(main, p).values)


@pytest.mark.parametrize("binding", BINDINGS)
@pytest.mark.parametrize("p", [1, 4, 7])
def test_sample_sort_all_bindings(binding, p):
    def main(raw):
        rng = np.random.default_rng(raw.rank + 17)
        data = rng.integers(0, 10**9, size=1500)
        return sort_checked(raw, data, binding)

    blocks = runp(main, p).values
    assert is_globally_sorted(blocks)
    assert sum(len(b) for b in blocks) == 1500 * p


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**31), p=st.integers(1, 5))
def test_kamping_sample_sort_property(seed, p):
    rng = np.random.default_rng(seed)
    data = rng.integers(-10**6, 10**6, size=(p, 400))

    def main(raw):
        return sort_checked(raw, data[raw.rank], "KaMPIng")

    blocks = runp(main, p).values
    merged = np.concatenate(blocks)
    assert np.array_equal(merged, np.sort(data.reshape(-1)))


def test_all_bindings_produce_identical_sorted_output():
    def main(raw, binding):
        rng = np.random.default_rng(raw.rank)
        data = rng.integers(0, 10**6, size=800)
        return sort_checked(raw, data, binding)

    merged = {}
    for binding in BINDINGS:
        blocks = runp(main, 4, args=(binding,)).values
        merged[binding] = np.concatenate(blocks)
    reference = merged["MPI"]
    for binding in BINDINGS:
        assert np.array_equal(merged[binding], reference), binding


class TestTable1Loc:
    """The qualitative Table I result: KaMPIng shortest, MPL longest."""

    def test_vector_allgather_ordering(self):
        loc = {b: logical_loc(impl)
               for b, (impl, _) in VECTOR_ALLGATHER_IMPLS.items()}
        assert loc["KaMPIng"] == 1  # the paper's one-liner
        assert loc["KaMPIng"] < loc["Boost.MPI"] <= loc["MPL"] < loc["MPI"]
        assert loc["KaMPIng"] < loc["RWTH-MPI"] <= loc["MPL"]

    def test_sample_sort_ordering(self):
        loc = {b: logical_loc(impl)
               for b, (impl, _) in SAMPLE_SORT_IMPLS.items()}
        assert loc["KaMPIng"] < loc["RWTH-MPI"] < loc["MPI"] <= loc["MPL"]
        assert loc["MPL"] == max(loc.values())  # layouts are the most verbose

    def test_loc_table_shape(self):
        table = loc_table({
            "vector allgather": {b: impl for b, (impl, _) in
                                 VECTOR_ALLGATHER_IMPLS.items()},
        })
        assert set(table["vector allgather"]) == set(BINDINGS)


#: Fig. 8's executing-simulator seconds at p = 2, 4, 8 (20 000 keys per rank):
#: how fast numpy sorts on the wall clock must not move the virtual clock
FIG8_SIMULATED = {
    "MPI": (0.0014499513584925491, 0.0014069314713147205, 0.001406283156302939),
    "Boost.MPI": (0.001447550718492549, 0.0013997295513147206,
                  0.001389478676302939),
    "RWTH-MPI": (0.0014499513584925491, 0.0014069314713147205,
                 0.001406283156302939),
    "MPL": (0.0016455673584925491, 0.0016449794713147207, 0.001699467156302939),
    "KaMPIng": (0.0014499513584925491, 0.0014069314713147205,
                0.001406283156302939),
}


@pytest.mark.usefixtures("default_algorithms")
@pytest.mark.parametrize("binding", BINDINGS)
def test_fig8_simulated_seconds_pinned(binding):
    points = samplesort_sweep(binding, [2, 4, 8], n_per_rank=20_000)
    assert all(pt.source == "simulated" for pt in points)
    assert tuple(pt.seconds for pt in points) == FIG8_SIMULATED[binding]


def test_kamping_no_overhead_vs_mpi_virtual_time():
    """Fig. 8's core claim: KaMPIng's simulated time ≈ plain MPI's."""
    def main(raw, binding):
        rng = np.random.default_rng(raw.rank)
        data = rng.integers(0, 10**9, size=4000)
        sort_checked(raw, data, binding)
        return raw.clock.now

    t = {}
    for binding in ("MPI", "KaMPIng", "MPL"):
        t[binding] = max(runp(main, 8, args=(binding,)).values)
    assert t["KaMPIng"] == pytest.approx(t["MPI"], rel=0.02)
    assert t["MPL"] > t["MPI"]  # the alltoallw path costs extra
