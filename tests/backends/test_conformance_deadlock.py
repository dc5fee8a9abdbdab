"""A hang ends the same way on both backends: by the deadline, loudly.

Two ranks each receive from the other first.  Each wait ends at the
``deadline`` with :class:`~repro.mpi.errors.RawDeadlockError`; the rank that
gives up first attaches the stacks of the rank threads it can see (on
threads all of them, on processes its own) and aborts its peer.  No rank
raised a root cause, so the run's report holds every rank's error, and with
them where each stuck rank stood.  The program is module-level so the case
also runs under the ``spawn`` start method.
"""

from __future__ import annotations

import re
import time

import pytest

from repro.mpi import run_mpi


def _recv_recv(comm):
    comm.recv(1 - comm.rank, 0)


def _shown_of(report: str, rank: int) -> str:
    """What ``report`` shows of ``rank``'s stack: its block in any rank's
    stack dump, and its own error with what follows it."""
    dumps = re.findall(rf"--- rank-{rank} ---\n((?: {{4}}.*(?:\n|$))*)",
                       report)
    own = re.search(rf"^rank {rank} raised .*?(?=^rank \d+ raised |\Z)",
                    report, re.M | re.S)
    return "".join(dumps) + (own.group(0) if own else "")


def test_a_recv_recv_deadlock_fails_by_the_deadline(backend):
    t0 = time.monotonic()
    with pytest.raises(RuntimeError, match="RawDeadlockError") as info:
        run_mpi(_recv_recv, 2, backend=backend, deadline=0.3)
    assert time.monotonic() - t0 < 2.5
    report = str(info.value)
    for rank in (0, 1):
        shown = _shown_of(report, rank)
        assert "in _recv_recv" in shown and "in recv" in shown, (
            f"rank {rank}'s recv frame is missing from:\n{report}")
