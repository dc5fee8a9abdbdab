#!/usr/bin/env python
"""Distributed containers & MapReduce-lite (paper §VI).

The paper's outlook promises "lightweight bulk parallel computation inspired
by MapReduce and Thrill, while not locking the programmer into the walled
garden of a particular framework".  This example shows that toolbox:
a DistributedArray pipeline (generate → map → filter → sort → reduce), its
materialization (collect at a root, scatter back out, allcollect), and the
canonical word count and a histogram over ``reduce_by_key`` — all plain
KaMPIng calls.

Run:  python examples/wordcount.py
"""

import numpy as np

from repro.containers import DistributedArray, word_count
from repro.containers.mapreduce import collect_to_root, histogram
from repro.core import Communicator, extend, run
from repro.plugins import SparseAlltoall

Comm = extend(Communicator, SparseAlltoall)

TEXT = """the quick brown fox jumps over the lazy dog
the dog barks and the fox runs over the hill
a lazy afternoon and a quick nap for the dog""".split()


def main(comm):
    # --- DistributedArray pipeline -------------------------------------
    squares = (
        DistributedArray.generate(comm, 10_000, lambda i: i.astype(np.int64))
        .map(lambda x: x * x)            # local, vectorized
        .filter(lambda x: x % 3 == 0)    # local
    )
    total = squares.sum()                # one allreduce
    smallest, largest = squares.min(), squares.max()
    top = squares.sort().rebalance()     # sample sort + rebalance
    gathered = top.collect()             # the sorted array at rank 0 only
    spread = DistributedArray.scatter_from(comm, gathered)  # balanced again
    spread_size = spread.size()          # one allreduce

    # --- word count -----------------------------------------------------
    per = len(TEXT) // comm.size
    lo = comm.rank * per
    hi = lo + per if comm.rank < comm.size - 1 else len(TEXT)
    counts = word_count(comm, TEXT[lo:hi])
    merged = collect_to_root(comm, counts)
    lengths = histogram(comm, (len(w) for w in TEXT[lo:hi]))
    by_length = collect_to_root(comm, lengths)
    mine = DistributedArray.from_local(comm, np.array([len(counts)]))
    keys_per_rank = mine.allcollect()    # every rank's key count, everywhere

    if comm.rank == 0:
        expected = sum(i * i for i in range(10_000) if (i * i) % 3 == 0)
        print(f"sum of squares divisible by 3 below 10^4: {total:,} "
              f"(expected {expected:,}) "
              f"{'✓' if total == expected else '✗'}")
        print(f"sorted tail on last rank: rebalanced blocks of "
              f"~{top.local_size} elements")
        assert smallest == 0 and largest == max(
            i * i for i in range(10_000) if (i * i) % 3 == 0)
        assert (np.diff(gathered) >= 0).all() and spread_size == len(gathered)
        print(f"collected {len(gathered):,} sorted squares at rank 0 "
              f"(min {smallest}, max {largest:,}), scattered back "
              f"~{spread.local_size} per rank")
        frequent = sorted(merged.items(), key=lambda kv: -kv[1])[:5]
        print("word count (top 5):", frequent)
        assert merged["the"] == 6 and merged["dog"] == 3
        assert by_length == {n: sum(len(w) == n for w in TEXT)
                             for n in map(len, TEXT)}
        assert keys_per_rank.sum() == len(set(TEXT))
        print(f"word lengths: {dict(sorted(by_length.items()))}; distinct "
              f"words per owner rank: {keys_per_rank.tolist()}")
        print("word count matches the text ✓")
    return total


if __name__ == "__main__":
    run(main, num_ranks=4, comm_class=Comm)
