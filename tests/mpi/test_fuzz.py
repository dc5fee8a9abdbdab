"""Schedule-fuzzed smoke tests and the Mailbox.cancel message-loss repro.

The ``@pytest.mark.fuzz(seeds=N)`` marker (tests/conftest.py) reruns a test
across N deterministic schedule-fuzzer seeds; ``REPRO_FUZZ_SEED=<s>`` replays
exactly one.  The repro test at the bottom demonstrates the workflow end to
end: it re-installs the *pre-fix* ``Mailbox.cancel`` semantics (cancel
unconditionally, even after a match), scans seeds until the fuzzer finds an
interleaving where the matched message is silently dropped, and then shows
the fixed semantics deliver the message under the very same seed.
"""

import time

import numpy as np
import pytest

from repro.core import Communicator, extend, send_buf, op
from repro.mpi import SUM, minimize_failing_seeds, run_mpi
from repro.plugins import MPIFailureDetected, SparseAlltoall, ULFM
from tests.conftest import runk, runp

SparseComm = extend(Communicator, SparseAlltoall)
FTComm = extend(Communicator, ULFM)


# ---------------------------------------------------------------------------
# Fuzz-marked smoke tests: the two most schedule-sensitive subsystems
# ---------------------------------------------------------------------------


@pytest.mark.fuzz(seeds=16)
def test_nbx_sparse_alltoall_fuzzed(fuzz_seed):
    """NBX's issend/iprobe/ibarrier termination protocol under 16 schedules."""
    def main(comm):
        p, r = comm.size, comm.rank
        got = comm.alltoallv_sparse({(r + 1) % p: np.array([r]),
                                     (r + 2) % p: np.array([r, r])})
        return {s: v.tolist() for s, v in sorted(got.items())}

    res = runk(main, 4, comm_class=SparseComm, fuzz_seed=fuzz_seed,
               sanitize=True)
    for r in range(4):
        assert res.values[r] == {(r - 1) % 4: [(r - 1) % 4],
                                 (r - 2) % 4: [(r - 2) % 4] * 2}
    assert not res.leaks


@pytest.mark.fuzz(seeds=16)
def test_ulfm_failure_recovery_fuzzed(fuzz_seed):
    """Revoke + shrink + recovery collective under 16 schedules."""
    def main(comm):
        if comm.rank == 1:
            comm.raw.kill_self()
        try:
            comm.allreduce_single(send_buf(1), op(SUM))
            return "unexpected"
        except MPIFailureDetected:
            if not comm.is_revoked:
                comm.revoke()
            comm = comm.shrink(generation=1)
            return comm.allreduce_single(send_buf(1), op(SUM))

    res = runk(main, 4, comm_class=FTComm, fuzz_seed=fuzz_seed)
    for r in (0, 2, 3):
        assert res.values[r] == 3
    assert res.values[1] is None


# ---------------------------------------------------------------------------
# The Mailbox.cancel race: fuzzer-found, seed-reproducible
# ---------------------------------------------------------------------------


class _MessageLost(AssertionError):
    """The legacy cancel dropped a matched message."""


def _legacy_cancel(req):
    """The pre-fix cancel: every cancellation "succeeded".

    It ignored whether an envelope had already matched the posted receive, so
    a cancel racing a deposit treated the receive as cancelled *after* the
    match and the delivered message vanished — never returned by ``wait``,
    never re-queued for another receive.  Here: the mailbox's answer ("too
    late, it matched") is dropped and ``True`` returned like the old code.
    """
    req._mailbox.cancel(req._pr)
    req._cancelled = True
    return True


def _cancel_race(seed, cancel, *, sanitize, send_delay=0.0):
    """One fuzzed run of the cancel-vs-deposit race; returns rank 0's outcome.

    Rank 1 eagerly sends one tagged message (``send_delay`` seconds of real
    time late) while rank 0 posts a matching irecv and immediately cancels
    it.  After a barrier (by which point the deposit has landed somewhere),
    rank 0 classifies the outcome:

    - ``("delivered", payload)`` — cancel reported "too late, already
      matched"; the receive completed normally.
    - ``("queued", payload)`` — cancel won the race; the message sits in the
      unexpected queue and a fresh recv drains it.
    - ``("lost", None)`` — an envelope matched the receive, yet it was
      treated as cancelled: the message is gone.  Only the legacy semantics
      can produce this.
    """
    def main(comm):
        if comm.rank == 1:
            if send_delay:
                time.sleep(send_delay)
            comm.send(np.array([7]), dest=0, tag=5)
            comm.barrier()
            return None
        req = comm.irecv(source=1, tag=5)
        cancelled = cancel(req)
        comm.barrier()
        if not cancelled:
            payload, _ = req.wait()
            return ("delivered", payload.tolist())
        if req._pr.envelope is not None:
            return ("lost", None)
        payload, _ = comm.recv(source=1, tag=5)
        return ("queued", payload.tolist())

    res = run_mpi(main, 2, fuzz_seed=seed, sanitize=sanitize)
    return res.values[0]


def _legacy_run(seed):
    outcome = _cancel_race(seed, _legacy_cancel, sanitize=False)
    if outcome[0] == "lost":
        raise _MessageLost(f"seed {seed} dropped the matched message")


def test_fuzzer_finds_and_fix_survives_the_cancel_race():
    """End-to-end seed-minimization workflow for the cancel message loss."""
    failing = minimize_failing_seeds(_legacy_run, range(64), stop_after=8)
    assert failing, (
        "no seed in 0..63 made the legacy cancel drop a matched message; "
        "the fuzzer's delivery-delay perturbation is not reaching the race"
    )
    # pick the seed whose schedule has margin to spare: rerun each five times
    # with rank 1's send held back 0.5 ms (a quarter of the fuzzer's largest
    # delay) and keep the one that still lost the message most often, lowest
    # seed on a tie.  Counting plain reruns cannot tell a seed that loses the
    # race by 0.2 ms, and so replays 11 times in 12, from one that always
    # does; a fuzzer-found seed is only useful as a regression if it replays
    losses = {s: sum(_cancel_race(s, _legacy_cancel, sanitize=False,
                                  send_delay=0.0005)[0] == "lost"
                     for _ in range(5))
              for s in failing}
    stable = max(failing, key=lambda s: (losses[s], -s))
    # the seed alone reproduces the pre-fix bug...
    with pytest.raises(_MessageLost):
        _legacy_run(stable)
    # ...and the fixed cancel never loses the message under the same schedule
    for _ in range(3):
        outcome = _cancel_race(stable, lambda req: req.cancel(), sanitize=True)
        assert outcome in (("delivered", [7]), ("queued", [7]))


@pytest.mark.fuzz(seeds=16)
def test_fixed_cancel_never_loses_messages_fuzzed(fuzz_seed):
    """The shipped cancel semantics deliver under every fuzzed schedule."""
    outcome = _cancel_race(fuzz_seed, lambda req: req.cancel(), sanitize=True)
    assert outcome in (("delivered", [7]), ("queued", [7]))
