"""Named-parameter factory functions (paper §III-A/§III-B).

These are KaMPIng's user-facing vocabulary: lightweight factory functions
that build :class:`~repro.core.parameters.Parameter` objects.  Parameters can
be passed in any order; the call-plan compiler checks presence and
compatibility once per parameter signature and computes sensible defaults for
everything omitted.

``*_out()`` factories request a value *back* from the call; passing a
container to an ``*_out()`` factory writes the value into it (by reference,
or by move when wrapped in :func:`~repro.core.buffers.move`).
"""

from __future__ import annotations

import operator
from typing import Any, Optional

from repro.core.errors import UsageError
from repro.core.parameters import IN, INOUT, OUT, Parameter, constructor
from repro.core.resize import ResizePolicy, no_resize
from repro.mpi import ops as _ops
from repro.mpi.ops import Op

# Each factory ``<name>`` builds through its own ``_<name> = constructor(key,
# direction)``: a probe of that factory's ``type(payload) → token`` table and
# two slot stores, behind the ``def`` that documents the parameter and checks
# how it is called.  These lines are the one statement of which parameter each
# factory builds; ``repro.analysis`` reads its factory table off them.
_send_buf = constructor("send_buf", IN)
_send_buf_out = constructor("send_buf", INOUT)
_recv_buf = constructor("recv_buf", OUT)
_send_recv_buf = constructor("send_recv_buf", INOUT)
_send_counts = constructor("send_counts", IN)
_send_counts_out = constructor("send_counts", OUT)
_recv_counts = constructor("recv_counts", IN)
_recv_counts_out = constructor("recv_counts", OUT)
_send_displs = constructor("send_displs", IN)
_send_displs_out = constructor("send_displs", OUT)
_recv_displs = constructor("recv_displs", IN)
_recv_displs_out = constructor("recv_displs", OUT)
_send_count = constructor("send_count", IN)
_recv_count = constructor("recv_count", IN)
_recv_count_out = constructor("recv_count", OUT)
_send_recv_count = constructor("send_recv_count", IN)
_root = constructor("root", IN)
_destination = constructor("destination", IN)
_source = constructor("source", IN)
_tag = constructor("tag", IN)
_values_on_rank_0 = constructor("values_on_rank_0", IN)
_status_out = constructor("status", OUT)
_op = constructor("op", IN)

# -- buffers -----------------------------------------------------------------

def send_buf(data: Any) -> Parameter:
    """The data this rank contributes to the operation."""
    return _send_buf(data)


def send_buf_out(data: Any) -> Parameter:
    """Send buffer whose container should be re-returned on completion.

    Used with non-blocking calls: ``isend(send_buf_out(move(v)), ...)`` hands
    the buffer to the operation and gets it back from ``wait()`` (Fig. 6).
    """
    return _send_buf_out(data)


def recv_buf(container: Any = None, resize: ResizePolicy = no_resize) -> Parameter:
    """Where to put received data.

    Without a container the result is returned by value.  With a container it
    is written in place under ``resize`` (pass ``move(container)`` to have
    the storage reused *and* returned by value).
    """
    return _recv_buf(container, resize)


def send_recv_buf(data: Any, resize: ResizePolicy = no_resize) -> Parameter:
    """In-place buffer: both contributes and receives (simplified ``MPI_IN_PLACE``)."""
    return _send_recv_buf(data, resize)


# -- counts & displacements ----------------------------------------------------

def send_counts(counts: Any) -> Parameter:
    """Per-destination element counts for all-to-all style operations."""
    return _send_counts(counts)


def send_counts_out(container: Any = None,
                    resize: ResizePolicy = no_resize) -> Parameter:
    """Request the (library-computed) send counts back."""
    return _send_counts_out(container, resize)


def recv_counts(counts: Any) -> Parameter:
    """Per-source element counts; omitting them makes the library exchange counts."""
    return _recv_counts(counts)


def recv_counts_out(container: Any = None,
                    resize: ResizePolicy = no_resize) -> Parameter:
    """Request the inferred receive counts back (avoids re-computing them)."""
    return _recv_counts_out(container, resize)


def send_displs(displs: Any) -> Parameter:
    """Explicit per-destination send displacements (offsets into send_buf)."""
    return _send_displs(displs)


def send_displs_out(container: Any = None,
                    resize: ResizePolicy = no_resize) -> Parameter:
    """Request the (library-computed) send displacements back."""
    return _send_displs_out(container, resize)


def recv_displs(displs: Any) -> Parameter:
    """Explicit per-source receive displacements (offsets into recv_buf)."""
    return _recv_displs(displs)


def recv_displs_out(container: Any = None,
                    resize: ResizePolicy = no_resize) -> Parameter:
    """Request the inferred receive displacements back (local prefix sum)."""
    return _recv_displs_out(container, resize)


def send_count(count: int) -> Parameter:
    """Explicit number of elements to send (otherwise inferred from send_buf)."""
    return _send_count(int(count))


def recv_count(count: int) -> Parameter:
    """Explicit number of elements to receive (e.g. for ``irecv``)."""
    return _recv_count(int(count))


def recv_count_out(container: Any = None) -> Parameter:
    """Request the number of received elements back (e.g. from scatterv)."""
    return _recv_count_out(container)


def send_recv_count(count: int) -> Parameter:
    """Element count of an in-place buffer where MPI would take one count."""
    return _send_recv_count(int(count))


# -- scalar control parameters ---------------------------------------------------

def root(rank: int) -> Parameter:
    """Root rank of a rooted collective (default 0)."""
    return _root(int(rank))


def destination(rank: int) -> Parameter:
    """Destination rank of a point-to-point send."""
    return _destination(int(rank))


def source(rank: int) -> Parameter:
    """Source rank of a receive (default: any source)."""
    return _source(int(rank))


def tag(value: int) -> Parameter:
    """Message tag (default 0)."""
    return _tag(int(value))


def values_on_rank_0(value: Any) -> Parameter:
    """Value exscan should produce on rank 0 (which MPI leaves undefined)."""
    return _values_on_rank_0(value)


def status_out() -> Parameter:
    """Request the receive status (source / tag / size) back."""
    return _status_out()


# -- reduction operations -----------------------------------------------------------

import numpy as np

_FUNCTOR_MAP = {
    operator.add: _ops.SUM,
    operator.mul: _ops.PROD,
    operator.and_: _ops.BAND,
    operator.or_: _ops.BOR,
    operator.xor: _ops.BXOR,
    min: _ops.MIN,
    max: _ops.MAX,
    sum: _ops.SUM,
    np.add: _ops.SUM,
    np.multiply: _ops.PROD,
    np.maximum: _ops.MAX,
    np.minimum: _ops.MIN,
    np.logical_and: _ops.LAND,
    np.logical_or: _ops.LOR,
}


def op(operation: Any, *, commutative: Optional[bool] = None) -> Parameter:
    """Reduction operation parameter.

    Accepts a built-in :class:`~repro.mpi.ops.Op`, a well-known functor
    (``operator.add`` → SUM, like KaMPIng's ``std::plus`` mapping, which lets
    the implementation use optimized built-in reductions), or any binary
    callable (the "reduction via lambda" feature).  Lambdas default to
    commutative; pass ``commutative=False`` for order-sensitive reductions.
    """
    if isinstance(operation, Op):
        resolved = operation
        if commutative is not None and commutative != operation.commutative:
            resolved = Op(operation.name, operation.fn, commutative,
                          operation.identity)
    elif operation in _FUNCTOR_MAP:
        resolved = _FUNCTOR_MAP[operation]
        if commutative is not None and commutative != resolved.commutative:
            resolved = Op(resolved.name, resolved.fn, commutative, resolved.identity)
    elif callable(operation):
        resolved = _ops.user_op(
            operation, commutative=True if commutative is None else commutative
        )
    else:
        raise UsageError(
            f"op() requires an Op, a known functor, or a binary callable; "
            f"got {operation!r}"
        )
    return _op(resolved)
