"""Parameter objects and the parameter registry.

Named parameters are realized — as in the paper — by lightweight objects
produced by factory functions (:mod:`repro.core.named_params`).  Each object
holds two things: its payload, and an interned *signature token* naming
everything else about it — the *parameter key* (send buffer, receive counts,
…), the direction (in / out / in-out), the resize policy, move-ownership and
the payload's container kind.  The call-plan cache (:mod:`repro.core.plans`)
keys on these tokens; a factory finds the token by the payload's type.

The registry is open: plugins may register new parameter keys
(:func:`register_parameter`), which gives library extensions the full named
parameter flexibility (paper §III-F).
"""

from __future__ import annotations

from typing import Any, Callable

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


#: (key, direction, moved, resize, type(data)) -> signature: the interning
#: probe, for what no factory's own table answers (:func:`constructor`).  Kind
#: and has-data are functions of the payload's type, so the probe is exact.
_BY_TYPE: dict[tuple, Signature] = {}
_INTERNED: dict[tuple, Signature] = {}


class Parameter:
    """One named argument to a wrapped MPI call: its payload and the interned
    :class:`Signature` token that says everything else about it."""

    __slots__ = ("data", "token")

    def __init__(self, key: str, direction: str, data: Any = None,
                 resize: ResizePolicy = no_resize):
        data, moved = unwrap_moved(data)  # move(c) hands the container over
        self.data = data
        probe = (key, direction, moved, resize, type(data))
        token = _BY_TYPE.get(probe)
        if token is None:  # first parameter of this shape and payload type
            shape = (key, direction, moved, data is not None, resize,
                     _kind_of(data))
            token = _BY_TYPE[probe] = _INTERNED.setdefault(
                shape, Signature(*shape))
        self.token = token

    key = property(lambda self: self.token.key)
    direction = property(lambda self: self.token.direction)
    resize = property(lambda self: self.token.resize)
    moved = property(lambda self: self.token.moved)

    def signature(self) -> Signature:
        """Hashable shape of this parameter (its interned ``token``).

        Deliberately excludes the payload: two calls with the same parameter
        *shapes* share a plan, like two uses of one template instantiation.
        """
        return self.token

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Parameter({self.key}, {self.direction})"


def constructor(key: str, direction: str) -> Callable[..., Parameter]:
    """``make(data=None, resize=no_resize)``, which every factory of
    ``(key, direction)`` parameters builds through (and registers ``key``): a
    probe of the factory's own ``type(data) → token`` table — the policy
    beside the type where one is given — and two slot stores.  ``move(c)``
    and the first payload of a type are interned by :class:`Parameter`."""
    register_parameter(key)
    tokens: dict[Any, Signature] = {}
    known, new = tokens.get, object.__new__

    def make(data: Any = None, resize: ResizePolicy = no_resize) -> Parameter:
        probe = type(data) if resize is no_resize else (resize, type(data))
        token = known(probe)
        if token is None:
            param = Parameter(key, direction, data, resize)
            if not param.token.moved:  # a Moved says nothing of what it holds
                tokens[probe] = param.token
            return param
        param = new(Parameter)
        param.data = data
        param.token = token
        return param

    return make


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
