"""Additional phylogenetics coverage: tree invariants, Fitch properties."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.phylo import fitch_score, random_alignment, random_tree
from repro.apps.phylo.comm_layers import BinaryStream
from repro.apps.phylo.tree import PhyloTree
from tests.oracles import validate_tree


class TestTreeInvariants:
    @settings(max_examples=25, deadline=None)
    @given(
        num_taxa=st.integers(2, 20),
        seed=st.integers(0, 2**31),
    )
    def test_random_trees_always_valid(self, num_taxa, seed):
        tree = random_tree(num_taxa, seed=seed)
        validate_tree(tree)
        assert len(tree.children) == num_taxa - 1
        assert tree.root == 2 * num_taxa - 2

    @settings(max_examples=20, deadline=None)
    @given(
        num_taxa=st.integers(3, 12),
        seed=st.integers(0, 2**31),
        a=st.integers(0, 11),
        b=st.integers(0, 11),
    )
    def test_leaf_swap_preserves_validity(self, num_taxa, seed, a, b):
        tree = random_tree(num_taxa, seed=seed)
        a, b = a % num_taxa, b % num_taxa
        swapped = tree.swap_leaves(a, b)
        validate_tree(swapped)
        # double swap is the identity
        assert swapped.swap_leaves(a, b).children == tree.children

    def test_swap_rejects_internal_nodes(self):
        tree = random_tree(5, seed=1)
        with pytest.raises(ValueError):
            tree.swap_leaves(0, tree.root)

    def test_invalid_trees_rejected(self):
        with pytest.raises(ValueError):
            validate_tree(PhyloTree(3, [(0, 1), (0, 2)]))  # node 0 twice
        with pytest.raises(ValueError):
            validate_tree(PhyloTree(2, [(0, 2)]))  # child after parent


class TestFitchProperties:
    def test_score_invariant_under_leaf_relabeling_of_identical_rows(self):
        aln = random_alignment(8, 100, seed=3)
        tree = random_tree(8, seed=3)
        base = fitch_score(tree, aln)
        # swapping two identical rows cannot change the score
        aln2 = aln.copy()
        aln2[[0, 1]] = aln2[[0, 1]]
        assert fitch_score(tree, aln2) == base

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_score_bounds(self, seed):
        num_taxa, num_sites = 6, 40
        aln = random_alignment(num_taxa, num_sites, seed=seed)
        tree = random_tree(num_taxa, seed=seed)
        score = fitch_score(tree, aln)
        # at most one mutation per internal node per site
        assert 0 <= score <= (num_taxa - 1) * num_sites

    def test_score_additive_over_site_blocks(self):
        """The distribution property §IV-C relies on."""
        aln = random_alignment(9, 120, seed=8)
        tree = random_tree(9, seed=8)
        whole = fitch_score(tree, aln)
        parts = sum(fitch_score(tree, aln[:, lo:lo + 30])
                    for lo in range(0, 120, 30))
        assert whole == parts

    def test_empty_site_block(self):
        tree = random_tree(4, seed=1)
        assert fitch_score(tree, np.empty((4, 0), dtype=np.uint8)) == 0


class TestBinaryStream:
    def test_roundtrip(self):
        obj = {"tree": [(0, 1), (2, 3)], "score": 42}
        assert BinaryStream.deserialize(BinaryStream.serialize(obj)) == obj
