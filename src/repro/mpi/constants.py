"""MPI-level constants mirroring the C API's special values."""

from __future__ import annotations

#: Wildcard source rank for receive operations (analog of ``MPI_ANY_SOURCE``).
ANY_SOURCE: int = -1

#: Wildcard message tag for receive operations (analog of ``MPI_ANY_TAG``).
ANY_TAG: int = -1

#: Sentinel marking an in-place operation (analog of ``MPI_IN_PLACE``).
IN_PLACE = object()

#: Sentinel rank for "no process" (analog of ``MPI_PROC_NULL``).
PROC_NULL: int = -2

#: Communicator id of the world communicator (analog of ``MPI_COMM_WORLD``).
#: Tuning tables installed for runs (``engine.tune``) key on this id, and
#: ``CollectiveEngine.explain`` defaults to it.
WORLD_ID = "world"

#: Upper bound (exclusive) for user tags; larger values are reserved for the
#: runtime's internal collective protocols.
TAG_UB: int = 2**20

#: Base offset for internal collective tags.  A collective phase with
#: sequence number ``seq`` and operation code ``code`` uses tag
#: ``-(_COLL_TAG_BASE + seq * _COLL_TAG_STRIDE + code)``
#: (``RawComm._next_coll_tag``), which can never collide with user tags (user
#: tags must be non-negative).
_COLL_TAG_BASE: int = 1_000_000
_COLL_TAG_STRIDE: int = 64


def validate_user_tag(tag: int) -> int:
    """Validate a user-provided message tag, mirroring ``MPI_TAG_UB`` checks."""
    if tag != ANY_TAG and not 0 <= tag < TAG_UB:
        from repro.mpi.errors import RawUsageError

        raise RawUsageError(
            f"user tags must be in [0, {TAG_UB}) or ANY_TAG, got {tag}"
        )
    return tag
