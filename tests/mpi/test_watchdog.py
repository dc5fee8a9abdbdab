"""Stack dumps for hung ranks (``repro.mpi.watchdog``).

A wait past the ``deadline`` raises :class:`~repro.mpi.errors.
RawDeadlockError` in its rank, whose ``stacks`` dict maps each rank thread
still alive — the raising rank's own as the error unwound it — to its
Python stack, and the run's report carries the same dump.
"""

import pytest

from repro.mpi import RawDeadlockError, run_mpi
from repro.mpi.watchdog import format_stacks


class TestRunWatchdog:
    def test_hung_run_raises_with_per_rank_stacks(self):
        def fn(comm):
            if comm.rank == 1:
                comm.recv(0, 7)     # rank 0 never sends: a real hang
            return "done"

        with pytest.raises(RuntimeError,
                           match="rank 1 raised RawDeadlockError") as excinfo:
            run_mpi(fn, 2, deadline=0.3, backend="thread")
        err = excinfo.value.__cause__
        assert isinstance(err, RawDeadlockError)
        assert list(err.stacks) == ["rank-1"]  # rank 0 had returned
        assert "in recv" in err.stacks["rank-1"]
        # the dump is embedded in the report too, for bare tracebacks
        assert "--- rank-1 ---" in str(excinfo.value)

    def test_format_stacks_empty(self):
        assert "no rank threads alive" in format_stacks({})
