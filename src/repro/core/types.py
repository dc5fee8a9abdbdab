"""The flexible type system (paper §III-D).

Three tiers, in order of preference:

1. **Static types** — Python/NumPy scalars and dataclasses map to wire
   datatypes ahead of communication.  Dataclass reflection
   (:func:`struct_type`) plays the role of the PFR-based struct serializer:
   the user declares a plain record type once and communicates lists of it
   with no per-call boilerplate.  Trivially-copyable records travel as
   contiguous bytes by default — the paper's §III-D4 finding that byte-blob
   transfer beats gap-respecting struct datatypes.
2. **Dynamic types** — datatypes constructed at runtime from type
   constructors (:func:`type_contiguous`, :func:`type_struct`,
   :func:`type_vector`), for layouts whose shape is only known at runtime.
3. **Serialization** — explicit, opt-in, for arbitrary object graphs
   (:mod:`repro.core.serialization`).  Sending an unmappable payload without
   opting in raises :class:`~repro.core.errors.SerializationRequiredError`
   rather than silently serializing (the Boost.MPI pitfall the paper calls
   out).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.core.errors import SerializationRequiredError, TypeMappingError
from repro.core.serialization import DeserializationWrapper, SerializationWrapper

# ---------------------------------------------------------------------------
# trait registry (the mpi_type_traits analog)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TypeTraits:
    """How a Python type maps onto the wire.

    ``as_bytes`` selects the paper's default contiguous-bytes transfer for
    trivially-copyable records; setting it ``False`` forces the
    gap-respecting derived-datatype path (which pays pack/unpack cost).
    """

    dtype: np.dtype
    as_bytes: bool = True
    origin: str = "builtin"


_SCALAR_DTYPES: dict[type, np.dtype] = {
    bool: np.dtype(np.bool_),
    int: np.dtype(np.int64),
    float: np.dtype(np.float64),
    complex: np.dtype(np.complex128),
}

_registry: dict[type, TypeTraits] = {
    t: TypeTraits(dt) for t, dt in _SCALAR_DTYPES.items()
}


def register_type(cls: type, dtype: np.dtype, *, as_bytes: bool = True,
                  origin: str = "custom") -> TypeTraits:
    """Explicitly register wire traits for ``cls`` (custom ``mpi_type_traits``)."""
    traits = TypeTraits(np.dtype(dtype), as_bytes=as_bytes, origin=origin)
    _registry[cls] = traits
    return traits


# ---------------------------------------------------------------------------
# static struct reflection (the PFR analog)
# ---------------------------------------------------------------------------


class fixed_array:
    """Field annotation for a fixed-length inline array (``std::array<T, N>``)."""

    def __init__(self, base: Any, length: int):
        self.base = base
        self.length = int(length)


def _field_dtype(annotation: Any) -> Any:
    """Map one dataclass field annotation to a NumPy dtype (or subdtype spec)."""
    if isinstance(annotation, fixed_array):
        return (_field_dtype(annotation.base), (annotation.length,))
    if isinstance(annotation, type):
        if annotation in _SCALAR_DTYPES:
            return _SCALAR_DTYPES[annotation]
        if dataclasses.is_dataclass(annotation):
            return struct_type(annotation).dtype
        if annotation in _registry:
            return _registry[annotation].dtype
        try:
            return np.dtype(annotation)
        except TypeError:
            pass
    if isinstance(annotation, np.dtype):
        return annotation
    if isinstance(annotation, str):
        raise TypeMappingError(
            f"cannot reflect string annotation {annotation!r}; the struct must be "
            f"defined in a module without 'from __future__ import annotations'"
        )
    raise TypeMappingError(f"cannot map field annotation {annotation!r} to a datatype")


def struct_type(cls: type, *, as_bytes: bool = True) -> TypeTraits:
    """Reflect a dataclass into a structured wire datatype and register it.

    The analog of ``struct mpi_type_traits<T> : struct_type<T> {}`` — the
    field list is discovered automatically, so the type definition can never
    go out of sync with the communicated layout.
    """
    if not dataclasses.is_dataclass(cls):
        raise TypeMappingError(
            f"struct_type requires a dataclass, got {cls!r}; define the record "
            f"with @dataclass or register explicit traits with register_type()"
        )
    existing = _registry.get(cls)
    if existing is not None and existing.origin in ("struct", "custom"):
        # an explicit registration (register_type) stays authoritative
        return existing
    names, formats = [], []
    for f in dataclasses.fields(cls):
        names.append(f.name)
        formats.append(_field_dtype(f.type))
    dtype = np.dtype({"names": names, "formats": formats})
    traits = TypeTraits(dtype, as_bytes=as_bytes, origin="struct")
    _registry[cls] = traits
    return traits


def is_trivially_copyable(dtype: np.dtype) -> bool:
    """No object fields ⇒ the array may be transferred as contiguous bytes."""
    return not dtype.hasobject


def _to_record(obj: Any) -> Any:
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return tuple(_to_record(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, (list, tuple)):
        return tuple(obj)
    return obj


def to_structured(objs: Sequence[Any], cls: type) -> np.ndarray:
    """Pack dataclass instances into a structured array for the wire."""
    traits = struct_type(cls)
    return np.array([_to_record(o) for o in objs], dtype=traits.dtype)


def _from_record(rec: Any, cls: type) -> Any:
    kwargs = {}
    for f in dataclasses.fields(cls):
        value = rec[f.name]
        ann = f.type
        if isinstance(ann, type) and dataclasses.is_dataclass(ann):
            kwargs[f.name] = _from_record(value, ann)
        elif isinstance(ann, fixed_array):
            kwargs[f.name] = list(value)
        elif isinstance(ann, type) and ann in _SCALAR_DTYPES:
            kwargs[f.name] = ann(value)
        else:
            kwargs[f.name] = value.item() if hasattr(value, "item") else value
    return cls(**kwargs)


def from_structured(arr: np.ndarray, cls: type) -> list:
    """Unpack a structured array back into dataclass instances."""
    return [_from_record(arr[i], cls) for i in range(len(arr))]


# ---------------------------------------------------------------------------
# dynamic type constructors (paper §III-D2)
# ---------------------------------------------------------------------------


def type_contiguous(base: Any, count: int) -> np.dtype:
    """``MPI_Type_contiguous``: ``count`` consecutive elements of ``base``."""
    return np.dtype((np.dtype(base), (int(count),)))


def type_struct(fields: Sequence[tuple[str, Any]]) -> np.dtype:
    """``MPI_Type_create_struct``: named fields with given base types."""
    return np.dtype({"names": [n for n, _ in fields],
                     "formats": [np.dtype(f) if not isinstance(f, tuple) else f
                                 for _, f in fields]})


def type_vector(base: Any, count: int, blocklength: int, stride: int) -> np.dtype:
    """``MPI_Type_vector``: ``count`` blocks of ``blocklength`` with ``stride``.

    Returns a padded structured dtype; the holes model the alignment gaps the
    paper's §III-D4 experiment is about.
    """
    base = np.dtype(base)
    if stride < blocklength:
        raise TypeMappingError("type_vector stride must be >= blocklength")
    itemsize = stride * base.itemsize
    return np.dtype(
        {"names": ["block"], "formats": [(base, (count, blocklength))],
         "offsets": [0], "itemsize": count * itemsize}
    )


# ---------------------------------------------------------------------------
# send-buffer encoding
# ---------------------------------------------------------------------------


@dataclass
class WireBuffer:
    """An encoded send payload plus the recipe to face it back to the user."""

    payload: Any
    count: int
    #: pay the derived-datatype (pack/unpack) penalty on the wire
    packed: bool
    #: bytes of CPU (de)serialization work to charge to the virtual clock
    compute_bytes: int
    decode: Callable[[Any], Any]
    #: the send payload was a single scalar (gather-style ops must then
    #: decode their concatenated result per-element, not as one scalar)
    scalar: bool = False


def _identity(x: Any) -> Any:
    return x


def _as_list(x: Any) -> Any:
    return x.tolist() if isinstance(x, np.ndarray) else list(x)


def encode_send(data: Any) -> WireBuffer:
    """Map a user send payload to the wire (static types, or explicit serialization).

    Raises :class:`SerializationRequiredError` for payloads that have no
    static mapping — serialization must be opted into with
    ``as_serialized(...)``.
    """
    if isinstance(data, SerializationWrapper):
        blob = data.encode()
        return WireBuffer(blob, 1, packed=False, compute_bytes=len(blob),
                          decode=_identity)
    if isinstance(data, np.ndarray):
        if data.dtype.hasobject:
            raise SerializationRequiredError(
                "object-dtype arrays cannot be mapped to a wire datatype; wrap "
                "the payload in as_serialized(...) to enable serialization"
            )
        packed = False
        if data.dtype.names is not None:
            traits = next(
                (t for t in _registry.values() if t.dtype == data.dtype), None
            )
            packed = traits is not None and not traits.as_bytes
        return WireBuffer(data, len(data) if data.ndim else 1, packed=packed,
                          compute_bytes=0, decode=_identity)
    if isinstance(data, (bool, int, float, complex, np.integer, np.floating,
                         np.bool_, np.complexfloating)):
        return WireBuffer(np.asarray([data]), 1, packed=False, compute_bytes=0,
                          decode=lambda a: a[0].item() if isinstance(a, np.ndarray)
                          else a[0], scalar=True)
    if isinstance(data, (str, bytes)):
        # character data is a static MPI type (char arrays); it travels as an
        # opaque immutable scalar here
        return WireBuffer(data, 1, packed=False, compute_bytes=0,
                          decode=_identity, scalar=True)
    if isinstance(data, (list, tuple)):
        if len(data) == 0:
            return WireBuffer(np.empty(0), 0, packed=False, compute_bytes=0,
                              decode=_as_list)
        first = data[0]
        if isinstance(first, (bool, int, float, np.integer, np.floating, np.bool_)):
            return WireBuffer(np.asarray(data), len(data), packed=False,
                              compute_bytes=0, decode=_as_list)
        if dataclasses.is_dataclass(first) and not isinstance(first, type):
            cls = type(first)
            traits = struct_type(cls)
            arr = to_structured(data, cls)
            return WireBuffer(
                arr, len(data), packed=not traits.as_bytes, compute_bytes=0,
                decode=lambda a, c=cls: from_structured(a, c),
            )
        raise SerializationRequiredError(
            f"elements of type {type(first).__name__} have no static wire mapping; "
            f"register the type (struct_type/register_type) or wrap the payload "
            f"in as_serialized(...)"
        )
    raise SerializationRequiredError(
        f"payload of type {type(data).__name__} has no static wire mapping; wrap "
        f"it in as_serialized(...) to enable explicit serialization"
    )


def decode_recv(wire: Any, wrapper: Optional[DeserializationWrapper]) -> Any:
    """Decode a received wire payload, applying an explicit deserialization wrapper."""
    if wrapper is not None:
        if not isinstance(wire, (bytes, bytearray)):
            raise TypeMappingError(
                "recv buffer was marked as_deserializable but the arriving "
                "message is not a serialized payload"
            )
        return wrapper.decode(bytes(wire))
    return wire
