"""Binary phylogenetic trees with proposal moves for the search."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np


@dataclass
class PhyloTree:
    """Rooted binary tree over ``num_taxa`` leaves.

    Node ids: leaves are ``0..num_taxa-1``; internal nodes follow.  The tree
    is stored as child pairs per internal node, in a valid postorder — the
    exact layout the Fitch kernel consumes.  The object is a plain data
    holder so it serializes cleanly (it is the payload of the Fig. 11
    broadcast).
    """

    num_taxa: int
    #: (left, right) children of internal node ``num_taxa + k``
    children: list[tuple[int, int]] = field(default_factory=list)

    @property
    def root(self) -> int:
        return self.num_taxa + len(self.children) - 1

    def copy(self) -> "PhyloTree":
        return PhyloTree(self.num_taxa, list(self.children))

    def swap_leaves(self, a: int, b: int) -> "PhyloTree":
        """Topology proposal: exchange the positions of two leaves."""
        if not (0 <= a < self.num_taxa and 0 <= b < self.num_taxa):
            raise ValueError("swap_leaves needs two leaf ids")
        out = self.copy()
        out.children = [
            (self._swapped(l, a, b), self._swapped(r, a, b))
            for l, r in out.children
        ]
        return out

    @staticmethod
    def _swapped(x: int, a: int, b: int) -> int:
        return b if x == a else (a if x == b else x)

    def to_dict(self) -> dict:
        """Plain-dict form (what the hand-rolled layer serializes)."""
        return {"num_taxa": self.num_taxa, "children": list(self.children)}

    @staticmethod
    def from_dict(d: dict) -> "PhyloTree":
        return PhyloTree(d["num_taxa"], [tuple(c) for c in d["children"]])


def random_tree(num_taxa: int, seed: int = 1,
                rng: Optional[np.random.Generator] = None) -> PhyloTree:
    """A uniformly random topology built by sequential joining."""
    rng = rng if rng is not None else np.random.default_rng((seed, 0x7EE))
    available = list(range(num_taxa))
    children: list[tuple[int, int]] = []
    next_id = num_taxa
    while len(available) > 1:
        i = int(rng.integers(0, len(available)))
        a = available.pop(i)
        j = int(rng.integers(0, len(available)))
        b = available.pop(j)
        children.append((a, b))
        available.append(next_id)
        next_id += 1
    return PhyloTree(num_taxa, children)
