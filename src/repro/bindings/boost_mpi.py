"""Boost.MPI-style bindings emulation (paper §II).

Faithful to the documented design *and its pitfalls*:

- STL-container support with receive buffers **always resized to fit**
  (convenient, but hidden allocation on every call);
- **implicit serialization**: any value that is not a flat numeric array is
  silently serialized (the behaviour the paper criticizes — costs appear
  without any trace in the calling code);
- functor → built-in reduction mapping (``std::plus`` style) and lambdas;
- **no ``alltoallv`` binding** — Boost.MPI never provided one, so algorithms
  needing it (sample sort, BFS) ``all_to_all`` one (implicitly serialized)
  vector per destination instead;
- MPI errors surface as exceptions (``boost::mpi::exception``).

The API mirrors Boost.MPI's free-function style (``all_gather(comm, value)``,
``all_reduce(comm, value, op)``, …) and holds what Table I, Fig. 8 and the
BFS variants call.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from repro.mpi.context import RawComm
from repro.mpi.errors import RawMpiError
from repro.mpi.ops import Op, user_op


class BoostMpiException(Exception):
    """Analog of ``boost::mpi::exception``: raised for any MPI failure."""


class communicator:
    """Boost.MPI's ``communicator`` wrapper (thin; free functions do the work)."""

    def __init__(self, raw: RawComm):
        self.raw = raw

    def rank(self) -> int:
        return self.raw.rank

    def size(self) -> int:
        return self.raw.size


def _guard(thunk: Callable[[], Any]) -> Any:
    try:
        return thunk()
    except RawMpiError as exc:  # Boost.MPI converts every MPI error
        raise BoostMpiException(str(exc)) from exc


def _maybe_serialize(raw: RawComm, value: Any) -> Any:
    """Implicit serialization: flat numeric arrays pass through, all else is
    pickled — with the (hidden) CPU cost charged to the virtual clock."""
    import pickle

    if isinstance(value, np.ndarray) and not value.dtype.hasobject:
        return value
    if isinstance(value, (int, float, bool, np.integer, np.floating)):
        return value
    blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    raw.compute(len(blob) * raw.machine.cost_model.ser_beta)
    return _Archived(blob)


def _maybe_deserialize(raw: RawComm, payload: Any) -> Any:
    import pickle

    if isinstance(payload, _Archived):
        raw.compute(len(payload.blob) * raw.machine.cost_model.ser_beta)
        return pickle.loads(payload.blob)
    return payload


class _Archived:
    """An implicitly-serialized payload in flight."""

    __slots__ = ("blob",)

    def __init__(self, blob: bytes):
        self.blob = blob


# ---------------------------------------------------------------------------
# collectives (free functions, like Boost.MPI)
# ---------------------------------------------------------------------------

def all_gather(comm: communicator, value: Any) -> list:
    """Allgather one value per rank; result vector resized to fit."""
    out = _guard(lambda: comm.raw.allgather(_maybe_serialize(comm.raw, value)))
    return [_maybe_deserialize(comm.raw, v) for v in out]


def all_gatherv(comm: communicator, values: np.ndarray,
                sizes: Sequence[int]) -> np.ndarray:
    """Allgatherv with caller-provided sizes (counts must be pre-exchanged)."""
    return _guard(lambda: comm.raw.allgatherv(np.asarray(values), list(sizes)))


def all_to_all(comm: communicator, values: Sequence[Any]) -> list:
    """``boost::mpi::all_to_all`` of one value per destination.

    Sending a ``vector<T>`` per destination works — through implicit
    serialization of each vector, with all its hidden cost.
    """
    payloads = [_maybe_serialize(comm.raw, v) for v in values]
    out = _guard(lambda: comm.raw.alltoall(payloads))
    return [_maybe_deserialize(comm.raw, v) for v in out]


def all_reduce(comm: communicator, value: Any, operation: Any) -> Any:
    """Reduction with functor mapping (``std::plus`` → ``MPI_SUM``) or lambda."""
    return _guard(lambda: comm.raw.allreduce(value, _resolve_op(operation)))


def _resolve_op(operation: Any) -> Op:
    if isinstance(operation, Op):
        return operation
    from repro.core.named_params import _FUNCTOR_MAP

    mapped = _FUNCTOR_MAP.get(operation) if _hashable(operation) else None
    if mapped is not None:
        return mapped
    if callable(operation):
        return user_op(operation)
    raise BoostMpiException(f"cannot map {operation!r} to a reduction operation")


def _hashable(x: Any) -> bool:
    try:
        hash(x)
        return True
    except TypeError:
        return False
