"""Execution backends: how ``run_mpi`` turns a function into ``p`` ranks.

Two backends ship today:

``thread`` (:class:`~repro.mpi.backends.thread.ThreadBackend`, the default)
    Ranks are threads of the calling process sharing one
    :class:`~repro.mpi.machine.Machine`.  Deterministic, cheap to spawn, and
    the only backend supporting the shared-address-space machinery (MPIsan,
    fault injection, ULFM).

``process`` (:class:`~repro.mpi.backends.process.ProcessBackend`)
    One OS process per rank, each running its part of the same ``Machine``
    over a transport: one simplex pipe per ordered rank pair.  Escapes the
    GIL for genuinely parallel execution.  Payloads and results must be
    picklable; unsupported features raise
    :class:`~repro.mpi.errors.UnsupportedOnBackend`.

Selection precedence: an explicit ``backend=`` argument (name or
:class:`Backend` instance) beats the ``REPRO_BACKEND`` environment variable,
which beats the ``"thread"`` default.  The differential conformance suite
(``tests/backends/``) runs the same programs on both backends and asserts
identical results.
"""

from __future__ import annotations

import os
from typing import Optional, Union

from repro.mpi.backends.base import Backend
from repro.mpi.backends.process import ProcessBackend
from repro.mpi.backends.thread import ThreadBackend
from repro.mpi.errors import RawUsageError, UnsupportedOnBackend

#: registry of backend names accepted by ``run_mpi(backend=...)`` and the
#: ``REPRO_BACKEND`` environment variable
BACKENDS: dict[str, type[Backend]] = {
    ThreadBackend.name: ThreadBackend,
    ProcessBackend.name: ProcessBackend,
}


def resolve_backend(backend: Optional[Union[str, Backend]] = None) -> Backend:
    """Resolve a backend argument to a ready-to-run :class:`Backend`.

    ``None`` consults ``REPRO_BACKEND`` (empty/unset means ``"thread"``).
    A :class:`Backend` instance passes through unchanged; a string is looked
    up in :data:`BACKENDS`.
    """
    if backend is None:
        backend = os.environ.get("REPRO_BACKEND", "").strip() or "thread"
    if isinstance(backend, Backend):
        return backend
    cls = BACKENDS.get(backend) if isinstance(backend, str) else None
    if cls is None:
        raise RawUsageError(
            f"unknown execution backend {backend!r}; "
            f"available: {sorted(BACKENDS)}"
        )
    return cls()


__all__ = [
    "Backend",
    "ThreadBackend",
    "ProcessBackend",
    "BACKENDS",
    "resolve_backend",
    "UnsupportedOnBackend",
]
