#!/usr/bin/env python
"""One-sided communication: a distributed histogram via RMA atomics.

Extends the bindings beyond the paper's current feature set toward full
standard coverage (its stated roadmap): every rank classifies local samples
and accumulates counts directly into the owner rank's window — no receives,
no collectives in the hot loop.  Then a scoreboard on rank 0 takes every
rank's total by ``put`` and hands the board back by ``get``, and a
``compare_and_swap`` elects a leader, each inside a scoped fence epoch; the
windows are freed collectively.

Operations queue at the origin, and the fence that closes their epoch
applies them at each target in (origin rank, issue order).  So a read's
value (``get``, ``fetch_and_op``, ``compare_and_swap``) is ready only after
that fence (``wait()`` raises before it), and rank 0 wins the election on
every backend and every run.

Run:  python examples/one_sided.py
"""

import numpy as np

from repro.core import run

BINS = 16
SAMPLES_PER_RANK = 50_000


def main(comm):
    p, r = comm.size, comm.rank
    bins_per_rank = BINS // p if BINS >= p else 1
    window = comm.win_create(np.zeros(max(bins_per_rank, 1), dtype=np.int64))

    rng = np.random.default_rng(r)
    samples = rng.normal(loc=BINS / 2, scale=BINS / 6, size=SAMPLES_PER_RANK)
    bins = np.clip(samples, 0, BINS - 1e-9).astype(np.int64)

    window.fence()
    counts = np.bincount(bins, minlength=BINS)
    for b in range(BINS):
        if counts[b]:
            owner, offset = divmod(b, bins_per_rank)
            owner = min(owner, p - 1)
            window.accumulate([counts[b]], target=owner,
                              offset=min(offset, len(window.local) - 1))
    window.fence()

    # every rank also reads rank 0's first bin by a read-only
    # fetch-and-op; window.free() below closes this epoch
    ticket = window.fetch_and_op(0, target=0, offset=0)

    # a scoreboard on rank 0: each rank puts its total into its own slot,
    # then reads the whole board back (a fence closes each epoch)
    board = comm.win_create(np.zeros(p, dtype=np.int64))
    with board.epoch():
        board.put([int(counts.sum())], target=0, offset=r)
    with board.epoch():
        totals = board.get(target=0)  # ready once the epoch has closed

    # a leader election: the first compare-and-swap of 0 → rank + 1 wins
    vote = comm.win_create(np.zeros(1, dtype=np.int64))
    with vote.epoch():
        vote.compare_and_swap(r + 1, 0, target=0, offset=0)
    with vote.epoch():
        seat = vote.get(target=0, offset=0, count=1)
    leader = int(seat.wait()[0]) - 1
    for win in (window, board, vote):
        win.free()
    return window.local.copy(), ticket.wait(), totals.wait().tolist(), leader


if __name__ == "__main__":
    result = run(main, num_ranks=4)
    histogram = np.concatenate([v[0] for v in result.values])
    total = int(histogram.sum())
    print("distributed histogram (RMA accumulate):")
    peak = histogram.max()
    for b, count in enumerate(histogram[:BINS]):
        bar = "#" * int(40 * count / peak)
        print(f"  bin {b:>2}: {count:>8,} {bar}")
    print(f"total samples: {total:,} "
          f"(expected {4 * SAMPLES_PER_RANK:,}) "
          f"{'✓' if total == 4 * SAMPLES_PER_RANK else '✗'}")
    boards = [v[2] for v in result.values]
    leaders = {v[3] for v in result.values}
    assert total == 4 * SAMPLES_PER_RANK
    assert boards == [[SAMPLES_PER_RANK] * 4] * 4, boards
    assert leaders == {0}, leaders  # rank 0's swap is applied first
    assert len({v[1] for v in result.values}) == 1  # one bin-0 count
    print(f"scoreboard (put/get): {boards[0]}; leader by CAS: rank "
          f"{leaders.pop()}")
