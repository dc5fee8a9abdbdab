"""Failure semantics of the process backend: loud refusals, remote errors.

The backend contract says unsupported features must raise
:class:`~repro.mpi.errors.UnsupportedOnBackend` with an actionable message
(wording pinned here), and a raising rank must surface its *remote*
traceback to the caller instead of a bare "child died".
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.mpi import SUM, RawUsageError, UnsupportedOnBackend, run_mpi
from repro.mpi.faultinject import FaultCampaign, KillOnOp

pytestmark = pytest.mark.slow

#: the pinned refusal wording (DESIGN §12): names the backend, blames the
#: shared-process state, and points at the way out
REFUSAL = (r"is not supported on the 'process' backend: it relies on "
           r"shared-process state \(\w+\); run with backend='thread'")


def _idle(comm):
    return comm.rank


def _raise_on_rank_one(comm):
    if comm.rank == 1:
        raise ValueError("deliberate failure for the negative-path test")
    return comm.rank


class TestRemoteErrors:
    def test_remote_exception_propagates_with_traceback(self):
        with pytest.raises(RuntimeError) as excinfo:
            run_mpi(_raise_on_rank_one, 3, backend="process")
        msg = str(excinfo.value)
        assert "rank 1 raised ValueError: deliberate failure" in msg
        assert "traceback from rank 1 (process backend)" in msg
        # the remote frames are embedded: function name and raise site
        assert "_raise_on_rank_one" in msg
        assert "raise ValueError" in msg

    def test_process_crash_is_reported(self):
        def hard_exit(comm):
            if comm.rank == 1:
                os._exit(3)  # simulates a segfault: no exception, no report
            return comm.rank

        with pytest.raises(RuntimeError,
                           match=r"rank 1 process died \(exit code 3\)"):
            run_mpi(hard_exit, 2, backend="process")

    def test_unpicklable_return_value_is_reported(self):
        with pytest.raises(RuntimeError, match="could not be pickled"):
            run_mpi(lambda comm: (lambda: comm.rank), 2, backend="process")

    def test_unpicklable_payload_is_reported(self):
        def send_lambda(comm):
            if comm.size > 1 and comm.rank == 0:
                comm.send(lambda: 1, 1, tag=0)
            elif comm.rank == 1:
                comm.recv(0, 0)

        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="could not be pickled"):
            run_mpi(send_lambda, 2, backend="process", deadline=15.0)
        # rank 0's abort frame fails rank 1's recv; nobody rides the deadline
        assert time.monotonic() - t0 < 3.0

    @pytest.mark.parametrize("join", [
        lambda comm: comm.allreduce(comm.rank, SUM),
        lambda comm: comm.ibarrier().wait(),
    ], ids=["allreduce", "ibarrier"])
    def test_peers_in_a_collective_fail_fast(self, join):
        def raise_before_joining(comm):
            if comm.rank == 0:
                raise ValueError("rank 0 never joins")
            return join(comm)

        t0 = time.monotonic()
        with pytest.raises(RuntimeError) as excinfo:
            run_mpi(raise_before_joining, 3, backend="process",
                    deadline=15.0)
        assert time.monotonic() - t0 < 3.0
        # the root cause, not a peer's RawProcessFailure
        assert "rank 0 raised ValueError: rank 0 never joins" in str(
            excinfo.value)

    def test_pipe_is_usable_after_a_failed_send(self):
        def fail_then_send(comm):
            if comm.rank == 1:
                return [comm.recv(0)[0] for _ in range(3)]
            raised = []
            for post in (comm.send, comm.ssend):
                try:
                    post(lambda: 1, 1)
                except RawUsageError as exc:
                    raised.append("could not be pickled" in str(exc))
            comm.send(np.arange(4), 1)
            comm.ssend("second", 1)
            comm.send(np.arange(4) + 10, 1)
            # the failed ssend left no match token behind
            return raised, len(comm.machine.transport._sync)

        res = run_mpi(fail_then_send, 2, backend="process", deadline=15.0)
        assert res.values[0] == ([True, True], 0)
        first, second, third = res.values[1]
        assert first.tolist() == [0, 1, 2, 3] and second == "second"
        assert third.tolist() == [10, 11, 12, 13]


class TestUnsupportedFeatures:
    def test_sanitize_refused(self):
        with pytest.raises(UnsupportedOnBackend, match=REFUSAL):
            run_mpi(_idle, 2, backend="process", sanitize=True)

    def test_faults_refused(self):
        campaign = FaultCampaign([KillOnOp(rank=0, op="send", nth=1)])
        with pytest.raises(UnsupportedOnBackend, match=REFUSAL):
            run_mpi(_idle, 2, backend="process", faults=campaign)

    def test_ambient_env_defaults_are_ignored(self, monkeypatch):
        # REPRO_SANITIZE opts the *thread* backend into extra checking; the
        # process backend must ignore it, because sanitize=True stays refused
        # here (a sanitizing CI lane would otherwise be unable to run
        # REPRO_BACKEND=process), erroring only on the explicit argument.
        # REPRO_FUZZ_SEED is not ignored any more: the fuzzer runs on both
        # backends (test_fuzzed_process_run_is_bit_identical_to_plain_threads)
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        monkeypatch.setenv("REPRO_FUZZ_SEED", "3")
        res = run_mpi(_idle, 2, backend="process")
        assert res.values == [0, 1]
        with pytest.raises(UnsupportedOnBackend):
            run_mpi(_idle, 2, backend="process", sanitize=True)

    def test_rma_guard(self):
        def rma(comm):
            comm.win_create(np.zeros(4))

        with pytest.raises(RuntimeError, match="RMA windows"):
            run_mpi(rma, 2, backend="process")

    def test_ulfm_guards(self):
        for fn, feature in (
            (lambda comm: comm.revoke(), "ULFM revocation"),
            (lambda comm: comm.shrink(), "ULFM shrink"),
            (lambda comm: comm.agree(True), "ULFM agreement"),
            (lambda comm: comm.kill_self(), "failure injection"),
        ):
            with pytest.raises(RuntimeError) as excinfo:
                run_mpi(fn, 2, backend="process")
            msg = str(excinfo.value)
            assert "UnsupportedOnBackend" in msg and feature in msg

    def test_thread_backend_still_supports_everything(self):
        # the guards are no-ops on the thread backend
        res = run_mpi(_idle, 2, sanitize=True, fuzz_seed=1,
                      backend="thread")
        assert res.values == [0, 1]

    def test_unknown_backend_name(self):
        with pytest.raises(RawUsageError, match="unknown execution backend"):
            run_mpi(_idle, 2, backend="sockets")
