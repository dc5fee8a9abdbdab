"""Graph applications: generators, BFS (Fig. 9/10), label propagation (§IV-B)."""

import numpy as np
import pytest

from repro.apps.graphs import (
    DistGraph,
    UNDEFINED,
    bfs,
    block_owner,
    generate_gnm,
    generate_rgg2d,
    generate_rhg,
)
from repro.apps.graphs.bfs import sequential_bfs_reference
from repro.apps.graphs.bfs_impls import BFS_IMPLS
from repro.apps.graphs.generators import symmetrize
from repro.apps.graphs.ghost_layer import GraphCommLayer
from repro.apps.graphs.graph import block_bounds, block_owners, from_edge_list
from repro.apps.graphs.labelprop import (
    LabelPropagationKamping,
    LabelPropagationMPI,
    LabelPropagationSpecialized,
)
from repro.core import Communicator, extend
from repro.loc import logical_loc
from repro.plugins import GridAlltoall, SparseAlltoall
from tests.conftest import runk, runp

FullComm = extend(Communicator, GridAlltoall, SparseAlltoall)


class TestGraphSubstrate:
    def test_block_bounds_partition(self):
        covered = []
        for r in range(5):
            first, last = block_bounds(23, 5, r)
            covered.extend(range(first, last))
            assert block_owner(first, 23, 5) == r
            assert block_owner(last - 1, 23, 5) == r
        assert covered == list(range(23))

    @pytest.mark.parametrize("p", [1, 2, 3, 7, 64])
    def test_block_owners_matches_block_owner(self, p):
        for n in (0, 1, p - 1, p, p + 1, 10_003):
            got = block_owners(np.arange(n), n, p)
            assert got.dtype == np.int64
            assert got.tolist() == [block_owner(v, n, p) for v in range(n)]

    def test_from_edge_list_csr(self):
        g = from_edge_list(8, 2, 0, np.array([0, 0, 3]), np.array([5, 1, 7]))
        assert g.local_size == 4
        assert sorted(g.neighbors(0).tolist()) == [1, 5]
        assert g.neighbors(3).tolist() == [7]
        assert g.neighbor_ranks() == (1,)

    def test_from_edge_list_rejects_foreign_sources(self):
        with pytest.raises(ValueError):
            from_edge_list(8, 2, 0, np.array([5]), np.array([0]))


class TestGenerators:
    def test_gnm_deterministic_and_local_sources(self):
        g1 = generate_gnm(32, 128, 4, 2, seed=9)
        g2 = generate_gnm(32, 128, 4, 2, seed=9)
        assert np.array_equal(g1.adjncy, g2.adjncy)
        assert g1.local_size == 32

    def test_rgg_symmetric_by_construction(self):
        graphs = [generate_rgg2d(32, 6.0, 4, r, seed=5) for r in range(4)]
        edges = set()
        for g in graphs:
            for lv in range(g.local_size):
                v = g.first + lv
                for t in g.neighbors(v):
                    edges.add((v, int(t)))
        assert all((t, v) in edges for v, t in edges)

    def test_rhg_has_hubs(self):
        graphs = [generate_rhg(64, 8.0, 4, r, seed=5) for r in range(4)]
        degrees = np.concatenate([np.diff(g.xadj) for g in graphs])
        assert degrees.max() > 4 * max(degrees.mean(), 1)  # heavy tail

    def test_rgg_locality(self):
        """RGG cross-edges only reach nearby cells."""
        p = 16
        graphs = [generate_rgg2d(32, 6.0, p, r, seed=5) for r in range(p)]
        partners = max(len(g.neighbor_ranks()) for g in graphs)
        assert partners <= 8

    def test_generator_p_invariance_rgg(self):
        """The same global graph regardless of who generates which part."""
        a = generate_rgg2d(32, 6.0, 4, 1, seed=5)
        b = generate_rgg2d(32, 6.0, 4, 1, seed=5)
        assert np.array_equal(a.xadj, b.xadj)

    def test_symmetrize_adds_reverse_edges(self):
        def main(comm):
            g = generate_gnm(16, 48, comm.size, comm.rank, seed=3)
            sym = symmetrize(comm, g)
            return sym

        graphs = runk(main, 4).values
        edges = set()
        for g in graphs:
            for lv in range(g.local_size):
                v = g.first + lv
                for t in g.neighbors(v):
                    edges.add((v, int(t)))
        assert all((t, v) in edges for v, t in edges)


def _gather_edges(graphs):
    edges = {}
    for g in graphs:
        for lv in range(g.local_size):
            v = g.first + lv
            edges.setdefault(v, []).extend(int(t) for t in g.neighbors(v))
    return edges


@pytest.mark.parametrize("family", ["gnm", "rgg", "rhg"])
@pytest.mark.parametrize("strategy", ["mpi", "kamping", "kamping_sparse",
                                      "kamping_grid", "mpi_neighbor",
                                      "mpi_neighbor_rebuild"])
def test_bfs_matches_sequential_reference(family, strategy):
    p = 4

    def main(comm):
        if family == "gnm":
            g = symmetrize(comm, generate_gnm(48, 160, p, comm.rank, seed=3))
        elif family == "rgg":
            g = generate_rgg2d(48, 8.0, p, comm.rank, seed=3)
        else:
            g = generate_rhg(48, 8.0, p, comm.rank, seed=3)
        return g, bfs(g, 0, comm, strategy=strategy)

    res = runk(main, p, comm_class=FullComm)
    graphs = [v[0] for v in res.values]
    dists = np.concatenate([v[1] for v in res.values])
    ref = sequential_bfs_reference(48 * p, _gather_edges(graphs), 0)
    assert np.array_equal(dists, ref)


def test_bfs_unreachable_vertices_stay_undefined():
    def main(comm):
        # two disconnected cliques of 2 vertices per rank, no cross edges
        first, last = block_bounds_pair = (comm.rank * 2, comm.rank * 2 + 2)
        sources = np.array([first, first + 1])
        targets = np.array([first + 1, first])
        g = from_edge_list(2 * comm.size, comm.size, comm.rank, sources, targets)
        return bfs(g, 0, comm, strategy="kamping")

    res = runk(main, 3)
    dists = np.concatenate(res.values)
    assert dists[0] == 0 and dists[1] == 1
    assert (dists[2:] == UNDEFINED).all()


@pytest.mark.parametrize("binding", list(BFS_IMPLS))
def test_bfs_impls_exchange_and_termination(binding):
    exchange, is_empty, wrap = BFS_IMPLS[binding]

    def main(raw):
        comm = wrap(raw)
        nested = {(raw.rank + 1) % raw.size: [raw.rank, raw.rank]}
        arrived = exchange(comm, nested)
        empty_false = is_empty(comm, [1])
        empty_true = is_empty(comm, [])
        return sorted(np.asarray(arrived).tolist()), empty_false, empty_true

    res = runp(main, 4)
    for r in range(4):
        arrived, e_false, e_true = res.values[r]
        assert arrived == [(r - 1) % 4] * 2
        assert e_false is False and e_true is True


def test_bfs_loc_table_ordering():
    loc = {b: logical_loc(fns[0]) + logical_loc(fns[1])
           for b, fns in BFS_IMPLS.items()}
    assert loc["KaMPIng"] == min(loc.values())
    assert loc["MPL"] == max(loc.values())
    assert loc["KaMPIng"] < loc["Boost.MPI"] < loc["RWTH-MPI"] < loc["MPI"]


class TestLabelPropagation:
    @staticmethod
    def _run(p, variant, rounds=3):
        def main(comm):
            g = generate_rgg2d(48, 8.0, p, comm.rank, seed=11)
            if variant == "mpi":
                lp = LabelPropagationMPI(g, 16, comm.raw)
            elif variant == "kamping":
                lp = LabelPropagationKamping(g, 16, comm)
            else:
                lp = LabelPropagationSpecialized(g, 16, GraphCommLayer(comm.raw))
            labels = lp.run(rounds)
            return labels, lp.cluster_sizes

        res = runk(main, p)
        labels = np.concatenate([v[0] for v in res.values])
        return labels, res.values[0][1], res

    @pytest.mark.parametrize("p", [1, 4])
    def test_three_variants_identical(self, p):
        results = {v: self._run(p, v)[0] for v in ("mpi", "kamping",
                                                   "specialized")}
        assert np.array_equal(results["mpi"], results["kamping"])
        assert np.array_equal(results["mpi"], results["specialized"])

    def test_cluster_sizes_consistent_with_labels(self):
        labels, sizes, _ = self._run(4, "kamping")
        counted = np.bincount(labels, minlength=len(sizes))
        assert np.array_equal(counted, sizes)

    def test_size_constraint_approximately_respected(self):
        """Bounded transient overshoot (stale sizes), like real async LP."""
        labels, _, _ = self._run(8, "mpi")
        counted = np.bincount(labels)
        assert counted.max() <= 16 + 8  # constraint + one joiner per rank

    def test_clustering_actually_coarsens(self):
        labels, _, _ = self._run(4, "kamping")
        assert len(np.unique(labels)) < len(labels) / 2

    def test_same_runtimes_for_all_variants(self):
        """§IV-B: 'We observed the same running times for all variants.'"""
        times = {}
        for v in ("mpi", "kamping", "specialized"):
            _, _, res = self._run(4, v)
            times[v] = res.max_time
        base = times["mpi"]
        assert times["kamping"] == pytest.approx(base, rel=0.05)
        assert times["specialized"] == pytest.approx(base, rel=0.05)
