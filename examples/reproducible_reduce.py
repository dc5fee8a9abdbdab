#!/usr/bin/env python
"""Reproducible floating-point reduction (paper §V-C, Fig. 13).

IEEE-754 addition is not associative: a naive allreduce of values spanning
sixteen orders of magnitude gives different results for different rank
counts.  The ``ReproducibleReduce`` plugin fixes
the combine order to a binary tree over *global element indices* — the
result is bit-identical for every distribution of the data, and for every
real-time schedule: each tree run is fuzzed (``fuzz_seed``: seeded random
delivery delays), which must not move a bit.

Run:  python examples/reproducible_reduce.py
"""

import numpy as np

from repro.core import Communicator, extend, op, run, send_buf
from repro.mpi import SUM
from repro.plugins import ReproducibleReduce

RRComm = extend(Communicator, ReproducibleReduce)

N = 100_000
RANKS = (1, 2, 3, 4, 6, 8)
# signed magnitudes from 1.0 to 1e16: which small terms a partial sum still
# holds depends on where the blocks are cut, so the naive sums differ by p
_rng = np.random.default_rng(42)
VALUES = _rng.choice([-1.0, 1.0], N) * 10.0 ** _rng.uniform(0, 16, N)


def block(p, r):
    per = N // p
    lo = r * per
    hi = lo + per if r < p - 1 else N
    return VALUES[lo:hi]


def tree_main(comm):
    return comm.allreduce_reproducible(block(comm.size, comm.rank), SUM)


def naive_main(comm):
    local = float(np.sum(block(comm.size, comm.rank)))
    return comm.allreduce_single(send_buf(local), op(SUM))


if __name__ == "__main__":
    print(f"summing {N:,} doubles distributed over varying rank counts\n")
    print(f"{'p':>3} {'naive allreduce':>24} {'reproducible reduce':>24}")
    naive_results, tree_results = set(), set()
    for p in RANKS:
        naive = float(run(naive_main, p).values[0])
        tree = float(run(tree_main, p, comm_class=RRComm,
                         fuzz_seed=p).values[0])
        naive_results.add(naive)
        tree_results.add(tree)
        print(f"{p:>3} {naive:>24.1f} {tree:>24.1f}")
    print(f"\ndistinct results: naive={len(naive_results)}, "
          f"reproducible={len(tree_results)}")
    assert len(naive_results) > 1, "the naive sums must depend on p"
    assert len(tree_results) == 1, "tree reduce must be p-independent"
    print("the fixed reduction tree is independent of the rank count ✓")
