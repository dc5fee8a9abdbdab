"""The two communication abstraction layers of the paper's Fig. 11.

RAxML-NG wraps pthreads+MPI behind a >700-LoC hand-written layer; its
``mpi_broadcast`` serializes into a manually-managed buffer, broadcasts the
length, then broadcasts the bytes, and deserializes on the receivers.  The
"after" version replaces all of it with one KaMPIng call.

Both layers expose the same interface (``master``, ``broadcast_object``,
``reduce_score``), drive the identical search, and must produce identical
results — the integration experiment of §IV-C.
"""

from __future__ import annotations

import pickle
from typing import Any

from repro.core import Communicator, as_serialized, op, send_buf, send_recv_buf
from repro.mpi.context import RawComm
from repro.mpi.ops import SUM


class BinaryStream:
    """RAxML-NG-style hand-rolled binary (de)serialization."""

    @staticmethod
    def serialize(obj: Any) -> bytes:
        return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)

    @staticmethod
    def deserialize(blob: bytes) -> Any:
        return pickle.loads(blob)


class HandRolledParallelContext:
    """The "before" layer: custom serialization + two-step broadcast.

    Mirrors the structure of the paper's Fig. 11 "before" listing: the
    master serializes into its buffer, the length travels first, then the
    payload bytes, and non-masters deserialize — all hand-written.
    """

    def __init__(self, raw: RawComm):
        self.raw = raw
        self._buffer = bytearray()

    def master(self) -> bool:
        return self.raw.rank == 0

    def broadcast_object(self, obj: Any) -> Any:
        if self.raw.size == 1:
            return obj
        if self.master():
            blob = BinaryStream.serialize(obj)
            self._buffer[:] = blob
            size = len(blob)
            self.raw.compute(size * self.raw.machine.cost_model.ser_beta)
        else:
            size = 0
        size = self.raw.bcast(size, root=0)
        payload = bytes(self._buffer[:size]) if self.master() else None
        payload = self.raw.bcast(payload, root=0)
        if not self.master():
            self.raw.compute(size * self.raw.machine.cost_model.ser_beta)
            obj = BinaryStream.deserialize(payload)
        return obj

    def reduce_score(self, local_score: int) -> int:
        return int(self.raw.allreduce(local_score, SUM))


class KampingParallelContext:
    """The "after" layer: the entire custom machinery becomes one-liners."""

    def __init__(self, comm: Communicator):
        self.comm = comm

    def master(self) -> bool:
        return self.comm.rank == 0

    def broadcast_object(self, obj: Any) -> Any:
        return self.comm.bcast(send_recv_buf(as_serialized(obj)))

    def reduce_score(self, local_score: int) -> int:
        return int(self.comm.allreduce_single(send_buf(local_score), op(SUM)))
