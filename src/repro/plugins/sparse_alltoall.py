"""Sparse all-to-all plugin: the NBX dynamic sparse data exchange (paper §V-A).

``MPI_Alltoallv`` needs a counts array with one entry per rank — Θ(p) work
and Θ(p)·α latency even when each rank talks to a handful of neighbors.
Neighborhood collectives fix this only for *static* patterns; rebuilding the
graph topology every exchange does not scale.

The NBX algorithm (Hoefler, Siebert, Lumsdaine, PPoPP'10) needs neither
counts nor topology: senders use *synchronous* sends (completion ⇒ the
receiver matched), receive until their own sends complete, then enter a
non-blocking barrier; when the barrier completes, every message in the system
has been received.  Total cost Θ(k + log p) for k local messages.  Each rank
runs it as one ``waitany`` loop.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.core.errors import UsageError
from repro.core.plugins import CommunicatorPlugin, plugin_method
from repro.mpi.constants import ANY_SOURCE
from repro.mpi.requests import waitany

#: user-tag region reserved for NBX rounds (kept below TAG_UB)
_NBX_TAG_BASE = 900_000
_NBX_TAG_SLOTS = 10_000


class SparseAlltoall(CommunicatorPlugin):
    """Adds ``alltoallv_sparse`` to a communicator."""

    _nbx_round: int = 0

    @plugin_method
    def alltoallv_sparse(self, messages: Mapping[int, Any]) -> dict[int, Any]:
        """Exchange destination→message pairs; returns source→message pairs.

        ``messages`` maps destination ranks to payloads (NumPy arrays or any
        payload the runtime can size).  Ranks that receive nothing are simply
        absent from the result — no Θ(p) materialization anywhere.
        """
        raw = self.raw
        p = self.size
        tag = _NBX_TAG_BASE + (self._nbx_round % _NBX_TAG_SLOTS)
        self._nbx_round += 1

        sends = []
        for dest, payload in messages.items():
            dest = int(dest)
            if not 0 <= dest < p:
                raise UsageError(f"destination {dest} out of range for "
                                 f"communicator of size {p}")
            sends.append(raw.issend(payload, dest, tag))

        # a wildcard receive stays posted beside the pending sends; once they
        # are matched the barrier joins, and its completion ends the round
        received: dict[int, Any] = {}
        waiting, barrier = [raw.irecv(ANY_SOURCE, tag), *sends], None
        while True:
            if len(waiting) == 1:
                barrier = raw.ibarrier()
                waiting.append(barrier)
            i, value = waitany(waiting)
            if waiting[i] is barrier:
                break
            if i == 0:
                _keep(received, *value)
                waiting[0] = raw.irecv(ANY_SOURCE, tag)
            else:
                del waiting[i]
        if not waiting[0].cancel():  # matched since its last test: still ours
            _keep(received, *waiting[0].wait())
        return received


def _keep(received: dict[int, Any], payload: Any, status) -> None:
    """File one message under its source, after any earlier ones from it."""
    source = status.source
    if source not in received:
        received[source] = payload
    elif isinstance(received[source], np.ndarray) and isinstance(
            payload, np.ndarray):
        received[source] = np.concatenate([received[source], payload])
    elif isinstance(received[source], list):
        received[source] = received[source] + list(payload)
    else:
        received[source] = [received[source], payload]
