"""Cross-validation of the per-algorithm α-β cost formulas.

Every registered collective algorithm carries a closed-form cost formula the
:class:`~repro.mpi.engine.CollectiveEngine` uses to pick a schedule.  These
tests run each algorithm through the executing simulator under three cost
models (latency-dominated, bandwidth-dominated, and the default) and check
the formula against the measured virtual makespan.

Two accuracy tiers:

* **wire-exact** algorithms put ndarrays (or nothing) on the wire, so
  ``payload_nbytes`` matches the formula's byte accounting — the predictions
  track the simulator within ~12 % across p ∈ {4, 7, 8} including the
  overhead-scheduling slack the formulas deliberately ignore.
* **container** algorithms ship Python lists/tuples of blocks (Bruck's
  collected-block lists, the binomial gather's (rank, payload) items,
  scatter_allgather's tagged shards), which are pickled on the wire.  Pickle
  framing is out of the α-β model, so these are validated only at large
  payloads where bytes dominate framing, with a factor-2 envelope.

The measurement harness uses *distinct* per-rank and per-destination arrays:
pickle memoizes repeated object references, so ``[arr] * p`` would collapse
the wire size and corrupt the measurement.
"""

import numpy as np
import pytest

from repro.mpi import CollectiveEngine, CostModel, SUM, algorithms, run_mpi

ITEM = 8  # np.int64 wire width

COST_MODELS = {
    "alpha_heavy": CostModel(alpha=1e-3, beta=1e-9, overhead=1e-5),
    "beta_heavy": CostModel(alpha=1e-6, beta=1e-5, overhead=1e-7),
    "default": CostModel(),
}

#: (op, algorithm) pairs whose wire payloads are raw ndarrays / tokens —
#: the formula must track the simulator tightly.
WIRE_EXACT = [
    ("barrier", "dissemination"),
    ("barrier", "tree"),
    ("bcast", "binomial"),
    ("bcast", "linear"),
    ("gather", "linear"),
    ("scatter", "linear"),
    ("allgather", "ring"),
    ("allgatherv", "ring"),
    ("alltoall", "pairwise"),
    ("alltoall", "spread"),
    ("alltoallv", "pairwise"),
    ("alltoallv", "spread"),
    ("reduce", "binomial"),
    ("reduce", "linear"),
    ("allreduce", "recursive_doubling"),
    ("allreduce", "reduce_bcast"),
    ("allreduce", "ring"),
    ("scan", "doubling"),
    ("exscan", "doubling"),
]

#: Pairs that pickle containers onto the wire: framing overhead is out of
#: model, so only the bytes-dominated regime is checked, loosely.
CONTAINER = [
    ("bcast", "scatter_allgather"),
    ("gather", "binomial"),
    ("scatter", "binomial"),
    ("allgather", "bruck"),
    ("allgather", "gather_bcast"),
    ("allgatherv", "gather_bcast"),
]


def _block(rank: int, width: int) -> np.ndarray:
    # distinct content per rank so nothing on the wire aliases
    return np.arange(width, dtype=np.int64) * (rank + 3) + rank


def _measure(op: str, name: str, p: int, width: int, cm: CostModel) -> float:
    engine = CollectiveEngine(cm, overrides={op: name}, env={})

    def main(comm):
        r = comm.rank
        arr = _block(r, width)
        if op == "bcast":
            comm.bcast(arr if r == 0 else None, 0)
        elif op == "allgather":
            comm.allgather(arr)
        elif op == "allgatherv":
            comm.allgatherv(arr, [width] * comm.size)
        elif op == "allreduce":
            comm.allreduce(arr, SUM)
        elif op == "reduce":
            comm.reduce(arr, SUM, 0)
        elif op == "alltoall":
            comm.alltoall([int(x) for x in range(comm.size)])
        elif op == "alltoallv":
            buf = np.concatenate([_block(d, width) for d in range(comm.size)])
            comm.alltoallv(buf, [width] * comm.size, [width] * comm.size)
        elif op == "barrier":
            comm.barrier()
        elif op == "gather":
            comm.gather(arr, 0)
        elif op == "scatter":
            blocks = ([_block(d, width) for d in range(comm.size)]
                      if r == 0 else None)
            comm.scatter(blocks, 0)
        elif op == "scan":
            comm.scan(arr, SUM)
        elif op == "exscan":
            comm.exscan(arr, SUM)
        else:  # pragma: no cover - keep the matrix exhaustive
            raise AssertionError(f"unhandled op {op}")

    res = run_mpi(main, p, cost_model=cm, engine=engine, deadline=60.0)
    return res.max_time


def _hint(op: str, p: int, width: int) -> int:
    """The nbytes hint the engine itself would compute for this call."""
    nbytes = width * ITEM
    if op in ("allgatherv", "alltoallv"):
        return nbytes * p  # total gathered / total local send volume
    if op == "alltoall":
        return p * ITEM  # p scalar payloads
    if op == "barrier":
        return 0
    return nbytes


@pytest.mark.parametrize("cm_name", sorted(COST_MODELS))
@pytest.mark.parametrize("p", (4, 7, 8))
@pytest.mark.parametrize("op,name", WIRE_EXACT)
def test_wire_exact_formulas_track_the_simulator(op, name, p, cm_name):
    cm = COST_MODELS[cm_name]
    for width in (16, 512):
        measured = _measure(op, name, p, width, cm)
        predicted = algorithms.get(op, name).cost(p, _hint(op, p, width), cm)
        assert measured > 0 or predicted == 0
        if measured > 0:
            assert predicted == pytest.approx(measured, rel=0.12), \
                f"{op}/{name} p={p} w={width} cm={cm_name}"


@pytest.mark.parametrize("cm_name", sorted(COST_MODELS))
@pytest.mark.parametrize("p", (4, 7, 8))
@pytest.mark.parametrize("op,name", CONTAINER)
def test_container_formulas_bound_the_simulator(op, name, p, cm_name):
    cm = COST_MODELS[cm_name]
    width = 512  # 4 KiB blocks: bytes dominate pickle framing
    measured = _measure(op, name, p, width, cm)
    predicted = algorithms.get(op, name).cost(p, _hint(op, p, width), cm)
    assert measured > 0
    assert measured / 2 <= predicted <= measured * 2, \
        f"{op}/{name} p={p} cm={cm_name}: measured={measured} predicted={predicted}"


def _costed():
    for op in algorithms.collectives():
        for algo in algorithms.algorithms(op):
            if algo.cost is not None:
                yield op, algo


def test_singleton_predictions_are_zero():
    cm = CostModel()
    for op, algo in _costed():
        assert algo.cost(1, 4096, cm) == 0.0, \
            f"{op}/{algo.name} must predict a free singleton"


def test_costs_monotone_in_payload():
    """Bigger payloads never get cheaper (sanity for the argmin policy)."""
    cm = CostModel()
    for op, algo in _costed():
        costs = [algo.cost(8, n, cm) for n in (0, 64, 4096, 1 << 20)]
        assert costs == sorted(costs), f"{op}/{algo.name}: {costs}"
