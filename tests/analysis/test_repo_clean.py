"""The repository's own communication code must stay reprolint-clean.

This is the in-tree mirror of the CI reprolint job: the examples, the
library and the benchmarks are linted with both layers enabled.  The apps
and plugins subtrees also run as cases of their own, so a finding there is
named by the subtree it is in.  A finding here means either a real defect
slipped in or the linter grew a false positive — both block.
"""

from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]

TREES = [
    REPO / "examples",
    REPO / "src" / "repro" / "apps",
    REPO / "src" / "repro" / "plugins",
    REPO / "src" / "repro",
    REPO / "benchmarks",
]


@pytest.mark.parametrize("tree", TREES, ids=lambda p: p.name)
def test_tree_is_lint_clean(lint_clean, tree):
    assert tree.is_dir(), tree
    lint_clean(tree)
