"""Suffix array applications (§IV-A) and the RAxML-NG analog (§IV-C)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.phylo import (
    HandRolledParallelContext,
    KampingParallelContext,
    fitch_score,
    local_site_block,
    parsimony_search,
    random_alignment,
    random_tree,
)
from repro.apps.phylo.tree import PhyloTree
from repro.apps.suffix import (
    pdc3,
    prefix_doubling_kamping,
    prefix_doubling_mpi,
    random_text,
    suffix_array_sequential,
)
from repro.apps.suffix.common import local_block
from repro.loc import logical_loc
from tests.conftest import runk
from tests.oracles import is_suffix_array, validate_tree


# ---------------------------------------------------------------------------
# suffix arrays
# ---------------------------------------------------------------------------

class TestSequentialReference:
    def test_known_example(self):
        # banana -> suffixes sorted: a, ana, anana, banana, na, nana
        text = np.array([2, 1, 14, 1, 14, 1])  # b=2 a=1 n=14
        sa = suffix_array_sequential(text)
        assert sa.tolist() == [5, 3, 1, 0, 4, 2]

    def test_empty_and_single(self):
        assert suffix_array_sequential(np.empty(0)).tolist() == []
        assert suffix_array_sequential(np.array([3])).tolist() == [0]

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(1, 4), min_size=1, max_size=60))
    def test_is_valid_suffix_array_property(self, chars):
        text = np.array(chars, dtype=np.int64)
        assert is_suffix_array(text, suffix_array_sequential(text))


def _run_variant(text, p, variant):
    def main(comm):
        blk = local_block(text, p, comm.rank)
        if variant == "kamping":
            return prefix_doubling_kamping(comm, blk, len(text))
        if variant == "mpi":
            return prefix_doubling_mpi(comm.raw, blk, len(text))
        return pdc3(comm, blk, len(text))

    res = runk(main, p)
    return np.concatenate(list(res.values))


@pytest.mark.parametrize("variant", ["kamping", "mpi", "dc3"])
@pytest.mark.parametrize("p", [1, 3, 4, 8])
def test_distributed_suffix_array_matches_reference(variant, p):
    text = random_text(240, sigma=3, seed=13)
    ref = suffix_array_sequential(text)
    assert np.array_equal(_run_variant(text, p, variant), ref)


@pytest.mark.parametrize("variant", ["kamping", "mpi", "dc3"])
def test_unary_alphabet(variant):
    text = np.ones(50, dtype=np.int64)
    ref = suffix_array_sequential(text)
    assert np.array_equal(_run_variant(text, 4, variant), ref)


@pytest.mark.parametrize("n", [97, 98, 99])  # all residues of n mod 3
def test_dc3_all_length_residues(n):
    text = random_text(n, sigma=2, seed=n)
    ref = suffix_array_sequential(text)
    assert np.array_equal(_run_variant(text, 4, "dc3"), ref)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    sigma=st.integers(1, 5),
    p=st.integers(1, 5),
)
def test_prefix_doubling_property(seed, sigma, p):
    text = random_text(130, sigma=sigma, seed=seed)
    ref = suffix_array_sequential(text)
    assert np.array_equal(_run_variant(text, p, "kamping"), ref)


def test_kamping_variant_shorter_than_mpi_variant():
    """§IV-A: the plain-MPI prefix doubling needs substantially more code."""
    import repro.apps.suffix.prefix_doubling as pd

    kamping_loc = (logical_loc(pd.prefix_doubling_kamping)
                   + logical_loc(pd._fetch_shifted_kamping)
                   + logical_loc(pd._send_back_kamping))
    mpi_loc = (logical_loc(pd.prefix_doubling_mpi)
               + logical_loc(pd._exchange_pairs_mpi)
               + logical_loc(pd._sample_sort_mpi))
    assert kamping_loc < mpi_loc


# ---------------------------------------------------------------------------
# phylo
# ---------------------------------------------------------------------------

class TestPhyloSubstrate:
    def test_random_tree_valid(self):
        for seed in range(5):
            validate_tree(random_tree(8, seed=seed))

    def test_swap_leaves(self):
        tree = random_tree(6, seed=1)
        swapped = tree.swap_leaves(0, 3)
        validate_tree(swapped)
        assert swapped.children != tree.children or True

    def test_tree_dict_roundtrip(self):
        tree = random_tree(7, seed=2)
        assert PhyloTree.from_dict(tree.to_dict()).children == tree.children

    def test_fitch_score_zero_for_identical_rows(self):
        aln = np.full((5, 20), 4, dtype=np.uint8)
        assert fitch_score(random_tree(5, seed=1), aln) == 0

    def test_fitch_score_counts_mutations(self):
        # two taxa, disjoint states at every site => 1 mutation per site
        aln = np.array([[1] * 6, [2] * 6], dtype=np.uint8)
        tree = PhyloTree(2, [(0, 1)])
        assert fitch_score(tree, aln) == 6

    def test_fitch_taxa_mismatch(self):
        with pytest.raises(ValueError):
            fitch_score(random_tree(4, seed=1), np.ones((5, 3), dtype=np.uint8))


class TestDistributedParsimony:
    ALN = random_alignment(10, 180, seed=6)

    def test_distributed_score_equals_sequential(self):
        tree = random_tree(10, seed=6)
        seq = fitch_score(tree, self.ALN)

        def main(comm):
            sites = local_site_block(self.ALN, comm.size, comm.rank)
            ctx = KampingParallelContext(comm)
            return ctx.reduce_score(fitch_score(tree, sites))

        for p in (1, 3, 8):
            assert runk(main, p).values[0] == seq

    @pytest.mark.parametrize("p", [1, 4])
    def test_both_layers_identical_results(self, p):
        def main(comm, variant):
            sites = local_site_block(self.ALN, comm.size, comm.rank)
            ctx = (HandRolledParallelContext(comm.raw) if variant == "before"
                   else KampingParallelContext(comm))
            res = parsimony_search(ctx, sites, num_taxa=10, iterations=25,
                                   seed=3)
            return res.best_score, res.accepted_moves

        before = runk(main, p, args=("before",)).values
        after = runk(main, p, args=("after",)).values
        assert before == after
        assert all(v == before[0] for v in before)

    def test_search_improves_score(self):
        def main(comm):
            sites = local_site_block(self.ALN, comm.size, comm.rank)
            ctx = KampingParallelContext(comm)
            tree = random_tree(10, seed=3)
            start = ctx.reduce_score(fitch_score(tree, sites))
            res = parsimony_search(ctx, sites, num_taxa=10, iterations=60,
                                   seed=3)
            return start, res.best_score

        start, best = runk(main, 4).values[0]
        assert best <= start

    def test_kamping_layer_issues_fewer_raw_calls(self):
        """One serialized bcast replaces the hand-rolled two-step broadcast."""
        def main(comm, variant):
            sites = local_site_block(self.ALN, comm.size, comm.rank)
            ctx = (HandRolledParallelContext(comm.raw) if variant == "before"
                   else KampingParallelContext(comm))
            res = parsimony_search(ctx, sites, num_taxa=10, iterations=20,
                                   seed=3)
            return res.mpi_calls_issued

        before = runk(main, 4, args=("before",)).values[0]
        after = runk(main, 4, args=("after",)).values[0]
        assert after < before

    def test_no_measurable_overhead_in_virtual_time(self):
        """§IV-C: replacing the layer does not slow the application down."""
        def main(comm, variant):
            sites = local_site_block(self.ALN, comm.size, comm.rank)
            ctx = (HandRolledParallelContext(comm.raw) if variant == "before"
                   else KampingParallelContext(comm))
            parsimony_search(ctx, sites, num_taxa=10, iterations=40, seed=3)
            return None

        t_before = runk(main, 4, args=("before",)).max_time
        t_after = runk(main, 4, args=("after",)).max_time
        assert t_after <= t_before * 1.05
