"""Parameter objects and the parameter registry.

Named parameters are realized — as in the paper — by lightweight objects
produced by factory functions (:mod:`repro.core.named_params`).  Each object
carries its *parameter key* (send buffer, receive counts, …), its direction
(in / out / in-out), its payload, its resize policy and move-ownership, and
an interned *signature token* naming everything about it but the payload —
the call-plan cache (:mod:`repro.core.plans`) keys on these tokens.

The registry is open: plugins may register new parameter keys
(:func:`register_parameter`), which gives library extensions the full named
parameter flexibility (paper §III-F).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.buffers import unwrap_moved
from repro.core.errors import UsageError
from repro.core.resize import ResizePolicy, no_resize
from repro.core.serialization import DeserializationWrapper, SerializationWrapper

IN = "in"
OUT = "out"
INOUT = "inout"

_REGISTRY: set[str] = set()


def register_parameter(key: str) -> str:
    """Register a parameter key (idempotent); returns the key."""
    if not key.isidentifier():
        raise UsageError(f"parameter key must be an identifier, got {key!r}")
    _REGISTRY.add(key)
    return key


def is_registered(key: str) -> bool:
    return key in _REGISTRY


# Built-in parameter keys.
SEND_BUF = register_parameter("send_buf")
RECV_BUF = register_parameter("recv_buf")
SEND_RECV_BUF = register_parameter("send_recv_buf")
SEND_COUNTS = register_parameter("send_counts")
RECV_COUNTS = register_parameter("recv_counts")
SEND_DISPLS = register_parameter("send_displs")
RECV_DISPLS = register_parameter("recv_displs")
SEND_COUNT = register_parameter("send_count")
RECV_COUNT = register_parameter("recv_count")
SEND_RECV_COUNT = register_parameter("send_recv_count")
OP = register_parameter("op")
ROOT = register_parameter("root")
DESTINATION = register_parameter("destination")
SOURCE = register_parameter("source")
TAG = register_parameter("tag")
VALUES_ON_RANK_0 = register_parameter("values_on_rank_0")
STATUS = register_parameter("status")


class Signature:
    """Payload-free shape of one parameter — what call plans are keyed on.

    Interned: equal shapes are the same object, so signatures hash and
    compare by identity and a plan-cache key costs no more than its length.
    """

    __slots__ = ("key", "direction", "moved", "has_data", "resize", "kind")

    def __init__(self, key: str, direction: str, moved: bool, has_data: bool,
                 resize: ResizePolicy, kind: str):
        self.key = key
        self.direction = direction
        self.moved = moved
        self.has_data = has_data
        self.resize = resize
        #: container kind of the payload (:func:`_kind_of`)
        self.kind = kind


#: (key, direction, moved, resize, type(data)) -> signature: the one probe a
#: parameter's construction costs.  Kind and has-data are functions of the
#: payload's type, so the probe is exact.
_BY_TYPE: dict[tuple, Signature] = {}
_INTERNED: dict[tuple, Signature] = {}


class Parameter:
    """One named argument to a wrapped MPI call."""

    __slots__ = ("key", "direction", "data", "resize", "moved", "token")

    def __init__(self, key: str, direction: str, data: Any = None,
                 resize: ResizePolicy = no_resize):
        data, moved = unwrap_moved(data)  # move(c) hands the container over
        self.key = key
        self.direction = direction
        self.data = data
        self.resize = resize
        self.moved = moved
        probe = (key, direction, moved, resize, type(data))
        try:
            self.token = _BY_TYPE[probe]
        except KeyError:  # first parameter of this shape and payload type
            shape = (key, direction, moved, data is not None, resize,
                     _kind_of(data))
            self.token = _BY_TYPE[probe] = _INTERNED.setdefault(
                shape, Signature(*shape))

    def signature(self) -> Signature:
        """Hashable shape of this parameter (its interned ``token``).

        Deliberately excludes the payload: two calls with the same parameter
        *shapes* share a plan, like two uses of one template instantiation.
        """
        return self.token

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Parameter({self.key}, {self.direction})"


def _kind_of(data: Any) -> str:
    """Coarse container-kind classification used in plan signatures."""
    if data is None:
        return "none"
    if isinstance(data, np.ndarray):
        return "array"
    if isinstance(data, list):
        return "list"
    if isinstance(data, SerializationWrapper):
        return "serialized"
    if isinstance(data, DeserializationWrapper):
        return "deserializable"
    if isinstance(data, (int, float, bool, str, bytes)):
        return "scalar"
    return "other"
