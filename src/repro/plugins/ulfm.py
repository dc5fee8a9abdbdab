"""User-Level Failure Mitigation plugin (paper §V-B, Fig. 12).

Wraps the ULFM primitives of the upcoming MPI standard behind idiomatic
exceptions instead of return codes:

- any operation touching a failed peer raises :class:`MPIFailureDetected`;
- operations on a revoked communicator raise :class:`MPIRevokedError`;
- :meth:`ULFM.revoke` poisons the communicator everywhere,
  :meth:`ULFM.shrink` agrees on the survivors and returns a fresh
  communicator containing only them, :meth:`ULFM.agree` is the fault-
  tolerant logical-AND agreement.

The plugin registers an ``on_error`` hook — the error-handling override
mechanism of the plugin architecture (§III-F/III-G).
"""

from __future__ import annotations

from typing import Hashable, Optional

from repro.core.errors import CommunicationFailure, KampingError, RevokedError
from repro.core.plugins import CommunicatorPlugin, plugin_method


class MPIFailureDetected(KampingError):
    """A peer process failed during the operation (``MPI_ERR_PROC_FAILED``)."""

    def __init__(self, failed_ranks=(), message: str = ""):
        self.failed_ranks = tuple(failed_ranks)
        super().__init__(
            message or f"process failure detected: ranks {self.failed_ranks}"
        )


class MPIRevokedError(MPIFailureDetected):
    """The communicator was revoked (``MPI_ERR_REVOKED``).

    A subclass of :class:`MPIFailureDetected` so a single ``except`` clause
    handles both the direct-failure and the revocation path, as in the
    paper's Fig. 12.
    """

    def __init__(self, message: str = ""):
        super().__init__((), message or "communicator has been revoked")


class ULFM(CommunicatorPlugin):
    """Fault-tolerance plugin: revoke / shrink / agree + exception mapping."""

    def on_error(self, exc: BaseException) -> None:
        """Map bindings-layer failures onto ULFM exceptions (error hook)."""
        if isinstance(exc, CommunicationFailure):
            raise MPIFailureDetected(exc.failed_ranks) from exc
        if isinstance(exc, RevokedError):
            raise MPIRevokedError(str(exc)) from exc
        raise exc

    @plugin_method
    def revoke(self) -> None:
        """Mark the communicator unusable on all ranks (``MPI_Comm_revoke``)."""
        self.raw.revoke()

    @property
    def is_revoked(self) -> bool:
        return self.raw.is_revoked

    @plugin_method
    def failed_ranks(self) -> tuple[int, ...]:
        """Locally-known failed ranks of this communicator."""
        return self.raw.failed_ranks()

    @plugin_method
    def shrink(self, generation: Optional[Hashable] = None) -> "ULFM":
        """Agree on the surviving ranks and build a communicator of them.

        ``generation`` distinguishes successive shrinks of the same
        communicator.  By default each call uses an internal auto-
        incrementing epoch, so repeated shrinks of one communicator object
        build distinct communicators (the new id is ``(comm, "shrink",
        generation, survivors)``).  Pass an explicit value to override —
        e.g. to coordinate the generation across ranks holding *distinct*
        wrapper objects of the same communicator, where each wrapper's
        private epoch counter would not be shared.
        """
        if generation is None:
            epoch = getattr(self, "_ulfm_shrink_epoch", 0)
            self._ulfm_shrink_epoch = epoch + 1
            generation = ("ulfm-auto", epoch)
        new_raw = self.raw.shrink(generation)
        return type(self)(new_raw)

    @plugin_method
    def agree(self, flag: bool, generation: Hashable = 0) -> bool:
        """Fault-tolerant agreement: logical AND over surviving ranks."""
        return self.raw.agree(flag, generation)
