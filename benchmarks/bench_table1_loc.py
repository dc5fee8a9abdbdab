"""Table I reproduction: lines of code per example per binding.

Paper values (C++): vector allgather 14/5/5/12/1, sample sort 32/30/21/37/16,
BFS 46/42/32/49/22 for MPI / Boost.MPI / RWTH-MPI / MPL / KaMPIng.  The
Python absolute counts differ (Python is terser than C++), but the *ordering*
and the relative gaps — KaMPIng shortest everywhere, MPL and plain MPI the
longest — are the reproduced result.

The counted code is also run: every vector-allgather and BFS variant at
p = 4 on threads, on one seeded input, must give KaMPIng's result (the
allgather) and the sequential reference's distances (BFS).
"""

import numpy as np

from repro.apps.graphs import generate_rgg2d
from repro.apps.graphs.bfs import sequential_bfs_reference
from repro.apps.graphs.bfs_impls import BFS_IMPLS, bfs_with_binding
from repro.apps.sorting import SAMPLE_SORT_IMPLS, VECTOR_ALLGATHER_IMPLS
from repro.loc import format_loc_table, loc_table, logical_loc
from repro.mpi import run_mpi

from benchmarks.conftest import report

COLUMNS = ["MPI", "Boost.MPI", "RWTH-MPI", "MPL", "KaMPIng"]

PAPER_TABLE1 = {
    "vector allgather": {"MPI": 14, "Boost.MPI": 5, "RWTH-MPI": 5,
                         "MPL": 12, "KaMPIng": 1},
    "sample sort": {"MPI": 32, "Boost.MPI": 30, "RWTH-MPI": 21,
                    "MPL": 37, "KaMPIng": 16},
    "BFS": {"MPI": 46, "Boost.MPI": 42, "RWTH-MPI": 32,
            "MPL": 49, "KaMPIng": 22},
}


#: the run of the counted variants: ranks, and the seed of every input
P, SEED = 4, 23
#: vertices per rank and radius of the BFS input (a random geometric graph)
VERTICES, RADIUS = 48, 8.0


def build_table():
    table = loc_table({
        "vector allgather": {b: impl
                             for b, (impl, _) in VECTOR_ALLGATHER_IMPLS.items()},
        "sample sort": {b: impl for b, (impl, _) in SAMPLE_SORT_IMPLS.items()},
    })
    table["BFS"] = {b: logical_loc(fns[0]) + logical_loc(fns[1])
                    for b, fns in BFS_IMPLS.items()}
    return table


def _run_variants(raw):
    """Every counted variant on this rank: the allgather's input and each
    binding's result, the rank's graph and each binding's BFS distances."""
    rng = np.random.default_rng([SEED, raw.rank])
    v = rng.integers(0, 1 << 20, size=int(rng.integers(0, 9)))
    gathered = {b: np.asarray(impl(wrap(raw), v))
                for b, (impl, wrap) in VECTOR_ALLGATHER_IMPLS.items()}
    g = generate_rgg2d(VERTICES, RADIUS, raw.size, raw.rank, seed=SEED)
    dists = {b: bfs_with_binding(raw, g, 0, b) for b in BFS_IMPLS}
    return v, gathered, g, dists


def run_variants() -> dict[str, str]:
    """Run every variant; each wrong one → what it got wrong (empty if none)."""
    values = run_mpi(_run_variants, P, backend="thread").values
    expected = np.concatenate([v for v, _, _, _ in values])
    edges = {}
    for _, _, g, _ in values:
        for lv in range(g.local_size):
            v = g.first + lv
            edges[v] = [int(t) for t in g.neighbors(v)]
    reference = sequential_bfs_reference(VERTICES * P, edges, 0)
    wrong = {}
    if not all(np.array_equal(gathered["KaMPIng"], expected)
               for _, gathered, _, _ in values):
        wrong["vector allgather KaMPIng"] = "not the ranks' concatenation"
    for b in VECTOR_ALLGATHER_IMPLS:
        if not all(np.array_equal(gathered[b], gathered["KaMPIng"])
                   for _, gathered, _, _ in values):
            wrong[f"vector allgather {b}"] = "differs from KaMPIng's"
    for b in BFS_IMPLS:
        dist = np.concatenate([dists[b] for _, _, _, dists in values])
        if not np.array_equal(dist, reference):
            wrong[f"BFS {b}"] = "distances differ from the sequential BFS"
    return wrong


def test_table1_lines_of_code(benchmark):
    table = benchmark(build_table)

    lines = [format_loc_table(table, COLUMNS), "",
             "paper (C++ LoC, for comparison):",
             format_loc_table(PAPER_TABLE1, COLUMNS)]
    report("Table I — lines of code per binding", "\n".join(lines))

    for example, row in table.items():
        benchmark.extra_info[example] = row
        # the reproduced qualitative result: KaMPIng minimal everywhere,
        # MPL / plain MPI maximal (same ordering as the paper's Table I)
        assert row["KaMPIng"] == min(row.values()), example
        assert max(row, key=row.get) in ("MPL", "MPI"), example


def test_table1_variants_run_and_agree(benchmark):
    wrong = benchmark.pedantic(run_variants, rounds=1, iterations=1)
    report("Table I — every counted variant run at p = 4",
           "\n".join(f"{k}: {v}" for k, v in wrong.items())
           or "all 5 vector allgathers equal KaMPIng's, "
              "all 5 BFS variants the sequential distances")
    assert wrong == {}
