"""Error hierarchy of the raw MPI runtime.

The raw layer reports errors the way C MPI reports error *classes*: one
exception type per class.  The KaMPIng layer (:mod:`repro.core.errors`)
re-raises these as user-facing exceptions, mirroring the paper's distinction
between *failures* (potentially recoverable, reported via exceptions) and
*usage errors* (caught eagerly with readable messages).
"""

from __future__ import annotations

from typing import Iterable


class RawMpiError(Exception):
    """Base class for all errors raised by the raw runtime."""


class RawUsageError(RawMpiError):
    """An invalid argument or protocol violation by the caller."""


class UnsupportedOnBackend(RawUsageError):
    """A feature the selected execution backend does not provide.

    The backend contract (DESIGN §12) requires features that cannot work on
    a given transport to fail loudly with an actionable message — never to
    silently fall back or misbehave.  The message always names the feature,
    where it is refused, and the way out (usually ``backend='thread'``).
    """


def unsupported(feature: str, what: str, where: str) -> str:
    """The pinned message format for refusing a feature that needs every rank
    in one address space; ``where`` is who refuses ("on the 'process'
    backend" from the backend itself, "over a transport" from the machine,
    which knows no more than that there is one)."""
    return (
        f"{what} is not supported {where}: it relies on "
        f"shared-process state ({feature}); run with backend='thread'"
    )


class RawTruncationError(RawMpiError):
    """A receive buffer was too small for the matched message (``MPI_ERR_TRUNCATE``)."""


class RawDeadlockError(RawMpiError):
    """A blocking operation exceeded the machine's deadlock deadline.

    Real MPI would simply hang; the runtime converts hangs into diagnosable
    failures so tests and benchmarks terminate.
    """


class RunTimeout(RawMpiError):
    """A whole run exceeded its real-time budget (``run_mpi(..., timeout=)``).

    Unlike :class:`RawDeadlockError` — raised when one *blocking operation*
    outlives the machine deadline — this is the run-level watchdog: the
    caller bounds the wall-clock time of the entire ``run_mpi`` call, and on
    expiry the per-rank stack dumps of the still-running ranks ride along as
    :attr:`stacks` (and in the message), so a wedged rank is diagnosable
    without attaching a debugger.
    """

    def __init__(self, message: str, stacks: "dict[str, str] | None" = None):
        #: ``{thread name: formatted stack}`` of ranks alive at expiry
        self.stacks: dict[str, str] = dict(stacks or {})
        super().__init__(message)


class RawProcessFailure(RawMpiError):
    """A peer process involved in the operation has failed (ULFM ``MPI_ERR_PROC_FAILED``)."""

    def __init__(self, failed_ranks: Iterable[int], message: str = ""):
        self.failed_ranks = sorted(set(failed_ranks))
        super().__init__(
            message or f"peer process(es) failed: ranks {self.failed_ranks}"
        )


class RawCommRevoked(RawMpiError):
    """The communicator has been revoked (ULFM ``MPI_ERR_REVOKED``)."""


class ProcessKilled(BaseException):
    """Raised inside a rank thread to simulate the process dying.

    Derives from :class:`BaseException` so application-level ``except
    Exception`` handlers cannot accidentally resurrect a dead process.
    """

    def __init__(self, rank: int):
        self.rank = rank
        super().__init__(f"rank {rank} killed by failure injection")
