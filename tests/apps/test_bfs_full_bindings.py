"""End-to-end BFS driven through each binding's exchange/termination code.

Each binding's Table-I exchange + termination pair drives the shared
level-synchronous loop (``bfs_with_binding``) and must produce the reference
distances; ``benchmarks/bench_table1_loc.py`` runs the same driver.
"""

import numpy as np
import pytest

from repro.apps.graphs import generate_rgg2d
from repro.apps.graphs.bfs import sequential_bfs_reference
from repro.apps.graphs.bfs_impls import BFS_IMPLS, bfs_with_binding
from tests.conftest import runp


@pytest.mark.parametrize("binding", list(BFS_IMPLS))
def test_full_bfs_through_binding(binding):
    p = 4

    def main(raw):
        g = generate_rgg2d(48, 8.0, p, raw.rank, seed=23)
        return g, bfs_with_binding(raw, g, 0, binding)

    res = runp(main, p)
    graphs = [v[0] for v in res.values]
    dists = np.concatenate([v[1] for v in res.values])
    edges = {}
    for g in graphs:
        for lv in range(g.local_size):
            v = g.first + lv
            edges.setdefault(v, []).extend(int(t) for t in g.neighbors(v))
    ref = sequential_bfs_reference(48 * p, edges, 0)
    assert np.array_equal(dists, ref), binding


def test_all_bindings_equal_virtual_time_except_mpl():
    """Fig. 10's overhead statement at the application level."""
    p = 4
    times = {}
    for binding in ("MPI", "KaMPIng", "RWTH-MPI", "MPL"):
        def main(raw, b=binding):
            g = generate_rgg2d(48, 8.0, p, raw.rank, seed=23)
            bfs_with_binding(raw, g, 0, b)
            return raw.clock.now

        times[binding] = max(runp(main, p).values)
    assert times["KaMPIng"] == pytest.approx(times["MPI"], rel=0.02)
    assert times["RWTH-MPI"] == pytest.approx(times["MPI"], rel=0.02)
    assert times["MPL"] > times["MPI"]
