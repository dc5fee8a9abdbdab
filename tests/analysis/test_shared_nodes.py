"""Reprolint's SPMD checker owns its event model: RPL101-104 stay pinned.

``analysis/spmd.py`` defines the ``Coll``/``P2P``/``Loop`` events it compares
across simulated ranks and imports nothing from the runtime's IR.  These
tests pin the RPL101-104 corpus findings, so moving the events between the
two changes nothing.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro.analysis
from repro.analysis import lint_file

CORPUS_BAD = Path(__file__).parent / "corpus" / "bad"
RPL_FILES = sorted(CORPUS_BAD.glob("rpl10[1-4]_*.py"))


def test_reprolint_imports_nothing_from_the_ir():
    for path in Path(repro.analysis.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                assert not (node.module or "").startswith("repro.mpi.ir"), path
            elif isinstance(node, ast.Import):
                assert not any(a.name.startswith("repro.mpi.ir")
                               for a in node.names), path

EXPECTED = {
    "rpl101_after_while.py": ["RPL101"],
    "rpl101_collective_order.py": ["RPL101"],
    "rpl101_straggler.py": ["RPL101"],
    "rpl101_while_else.py": ["RPL101"],
    "rpl102_root_mismatch.py": ["RPL102"],
    "rpl103_op_mismatch.py": ["RPL103"],
    "rpl104_unmatched_p2p.py": ["RPL104", "RPL104"],
}


def test_spmd_corpus_inventory_is_complete():
    assert sorted(p.name for p in RPL_FILES) == sorted(EXPECTED)


@pytest.mark.parametrize("path", RPL_FILES, ids=lambda p: p.stem)
def test_spmd_findings_unchanged_after_node_extraction(path):
    found = sorted(f.code for f in lint_file(path)
                   if f.code in ("RPL101", "RPL102", "RPL103", "RPL104"))
    assert found == EXPECTED[path.name]
