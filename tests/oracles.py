"""Test oracles: reference checks the tests hold the library against.

- :func:`corun` runs the p generators of one collective schedule on one
  thread over in-memory FIFO channels (matched sends, no deadlock, each
  rank's result) — no communicator, no clock;
- :func:`is_globally_sorted` checks a distributed sort's blocks;
- :func:`is_suffix_array` checks a suffix array against its text;
- :func:`validate_tree` checks a phylogenetic tree's structure.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Callable, Dict, Tuple

import numpy as np

from repro.mpi.algorithms.schedule import Recv, Schedule, Send
from repro.mpi.errors import RawUsageError


def corun(schedule: Schedule, p: int, args: Callable[[int], tuple]
          ) -> tuple[list, list]:
    """Run ``schedule`` on all p ranks, one thread, in-memory FIFO channels.

    Rank ``r`` is called as ``schedule(p, r, *args(r))``.  Returns
    ``(steps, values)``: each rank's ``("send" | "recv", peer)`` sequence in
    issue order, and each rank's result.
    """
    gens = [schedule(p, r, *args(r)) for r in range(p)]
    channels: Dict[Tuple[int, int], deque] = defaultdict(deque)
    steps: list = [[] for _ in range(p)]
    values: list = [None] * p
    stuck: dict = dict.fromkeys(range(p))  # rank -> peer it waits for
    progress = True
    while stuck and progress:
        progress = False
        for r, peer in list(stuck.items()):
            if peer is not None and not channels[peer, r]:
                continue
            progress = True
            answer = None if peer is None else channels[peer, r].popleft()
            try:
                while True:
                    step = gens[r].send(answer)
                    answer = None
                    if type(step) is Send:
                        steps[r].append(("send", step.peer))
                        channels[r, step.peer].append(step.payload)
                    elif type(step) is Recv:
                        steps[r].append(("recv", step.peer))
                        if not channels[step.peer, r]:
                            stuck[r] = step.peer
                            break
                        answer = channels[step.peer, r].popleft()
            except StopIteration as stop:
                values[r] = stop.value
                del stuck[r]
    if stuck:
        raise RawUsageError(f"schedule deadlocks at p={p}: {stuck}")
    return steps, values


def is_globally_sorted(blocks: list[np.ndarray]) -> bool:
    """Verification helper: blocks sorted locally and ordered across ranks."""
    merged = np.concatenate([b for b in blocks])
    return bool((np.diff(merged) >= 0).all())


def is_suffix_array(text: np.ndarray, sa: np.ndarray) -> bool:
    """Verify that ``sa`` sorts all suffixes of ``text``."""
    n = len(text)
    if sorted(sa.tolist()) != list(range(n)):
        return False
    for a, b in zip(sa[:-1], sa[1:]):
        if not tuple(text[a:]) < tuple(text[b:]):
            return False
    return True


def validate_tree(tree) -> None:
    """A :class:`~repro.apps.phylo.tree.PhyloTree` is structurally sound:
    every node referenced once, children precede parents."""
    seen: set[int] = set()
    for k, (l, r) in enumerate(tree.children):
        parent = tree.num_taxa + k
        for c in (l, r):
            if c >= parent:
                raise ValueError("children must precede their parent")
            if c in seen:
                raise ValueError(f"node {c} has two parents")
            seen.add(c)
    expected = set(range(tree.root)) - {tree.root}
    if seen != expected:
        raise ValueError("tree is not a spanning binary tree")
