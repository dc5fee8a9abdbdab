"""The SPMD checker and the IR share ONE event model (no drift possible).

Before the IR landed, ``analysis/spmd.py`` owned its own ``Coll``/``P2P``/
``Loop`` dataclasses.  They now live in ``repro.mpi.ir.nodes`` and the
checker imports them, so a recorded epoch lowers (via
``Epoch.static_events``) into exactly the event vocabulary reprolint
reasons about.  These tests pin the identity and re-pin the RPL101-104
corpus findings so the extraction provably changed nothing.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import repro.analysis.spmd as spmd
import repro.mpi.ir.nodes as nodes
from repro.analysis import lint_file
from repro.mpi import run_mpi
from repro.mpi.ops import SUM

CORPUS_BAD = Path(__file__).parent / "corpus" / "bad"
RPL_FILES = sorted(CORPUS_BAD.glob("rpl10[1-4]_*.py"))


def test_event_classes_are_the_same_objects():
    assert spmd.Coll is nodes.Coll
    assert spmd.P2P is nodes.P2P
    assert spmd.Loop is nodes.Loop
    assert spmd.ANY is nodes.ANY
    assert spmd.Event is nodes.Event


def test_recorded_epochs_speak_the_checker_vocabulary():
    """Dynamic recordings lower to instances of the checker's own classes —
    the unification is usable, not just nominal."""
    def program(raw):
        total = raw.allreduce(raw.rank, SUM)
        if raw.rank == 0:
            raw.send(total, 1, tag=7)
        if raw.rank == 1:
            raw.recv(0, 7)
        return total

    res = run_mpi(program, 2, ir="record")
    events = res.ir.epoch.static_events(0)
    assert isinstance(events[0], spmd.Coll)
    assert isinstance(events[1], spmd.P2P)
    assert events[1].key() == ("send", 1, 7)


# -- regression pin: the extraction left the SPMD checker untouched --------

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
