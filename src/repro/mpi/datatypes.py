"""Low-level payload handling for the raw runtime.

The raw layer is deliberately permissive about payload types — like the C API
it moves "bytes described by a datatype".  NumPy arrays are the fast path
(``ndarray`` is our contiguous buffer); any other Python object is accepted
and sized by serialization, which models what a C program would do by packing.
"""

from __future__ import annotations

import copy
import io
import pickle
from typing import Any

import numpy as np

_SCALAR_NBYTES = 8  # ints/floats modelled as 64-bit words


def _pickled_size(obj: Any) -> int:
    """Pickled size with memoization disabled.

    The memo makes ``len(pickle.dumps(x))`` depend on object *identity*
    (repeated references collapse to back-references), which differs between
    execution backends: a payload aggregated from in-process objects shares
    interned constants, the same payload aggregated from unpickled pipe
    messages does not.  Sizing without the memo keeps the cost model a pure
    function of the payload's value.  Self-referential payloads cannot be
    pickled memo-free; fall back to a plain dump — their internal sharing is
    reproduced by unpickling, so that size is identity-stable too.
    """
    buf = io.BytesIO()
    pickler = pickle.Pickler(buf, protocol=pickle.HIGHEST_PROTOCOL)
    pickler.fast = True
    try:
        pickler.dump(obj)
    except (ValueError, RecursionError):
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    return buf.tell()


def payload_nbytes(obj: Any) -> int:
    """Estimate the on-wire size of ``obj`` in bytes.

    Exact for arrays and byte strings; for general Python objects the pickled
    size is used (this is also what the serialization layer would transmit).
    """
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode("utf-8"))
    if isinstance(obj, (bool, int, float, np.integer, np.floating)):
        return _SCALAR_NBYTES
    if obj is None:
        return 0
    if isinstance(obj, (list, tuple)) and all(
        isinstance(x, (bool, int, float, np.integer, np.floating)) for x in obj
    ):
        return _SCALAR_NBYTES * len(obj)
    try:
        return _pickled_size(obj)
    except Exception:  # pragma: no cover - unpicklable payloads are rare
        return _SCALAR_NBYTES


def snapshot(obj: Any) -> Any:
    """Copy a payload at send time (buffered-send semantics).

    MPI's buffered semantics allow the caller to mutate the send buffer as
    soon as the call returns; the runtime therefore snapshots mutable
    payloads.  Immutable objects are passed through unchanged.  An array
    keeps its memory order (``"A"``: Fortran if only Fortran-contiguous,
    else C), which is also what a pickle round trip through the process
    backend's pipes delivers.
    """
    if isinstance(obj, np.ndarray):
        return obj.copy(order="A")
    if isinstance(obj, (bytes, str, int, float, bool, frozenset, type(None))):
        return obj
    if isinstance(obj, tuple) and all(
        isinstance(x, (bytes, str, int, float, bool, type(None))) for x in obj
    ):
        return obj
    return copy.deepcopy(obj)


def ensure_1d_array(obj: Any, dtype=None) -> np.ndarray:
    """Coerce ``obj`` to a 1-D contiguous NumPy array without copying when possible."""
    arr = np.asarray(obj, dtype=dtype)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        arr = np.ascontiguousarray(arr).reshape(-1)
    return arr

