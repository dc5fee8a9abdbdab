"""Resize policies controlling memory allocation of out-buffers (paper §III-C).

Each out-parameter accepting a container takes a resize policy:

- :data:`no_resize` (default) — the container's capacity is assumed to be
  large enough; with assertions enabled a too-small container raises.
- :data:`grow_only` — the container is resized only if it is too small.
- :data:`resize_to_fit` — the container is always resized to exactly fit.

When no container is supplied at all, the library allocates a fresh one and
returns it by value (which renders the policy moot).
"""

from __future__ import annotations

from enum import Enum

from repro.core.errors import AssertionLevel, BufferResizeError, kassert


class ResizePolicy(Enum):
    """How an out-container's capacity is reconciled with the result size."""

    NO_RESIZE = "no_resize"
    GROW_ONLY = "grow_only"
    RESIZE_TO_FIT = "resize_to_fit"

    # members are singletons; Enum's own __hash__ is a Python-level call and
    # the policy is hashed once per constructed parameter
    __hash__ = object.__hash__


no_resize = ResizePolicy.NO_RESIZE
grow_only = ResizePolicy.GROW_ONLY
resize_to_fit = ResizePolicy.RESIZE_TO_FIT


def apply_policy_to_list(container: list, result: list, policy: ResizePolicy) -> None:
    """Write ``result`` into a referencing ``list`` container under ``policy``."""
    n = len(result)
    if policy is ResizePolicy.RESIZE_TO_FIT:
        container[:] = result
        return
    if policy is ResizePolicy.GROW_ONLY and len(container) < n:
        container[:] = result
        return
    kassert(
        AssertionLevel.LIGHT,
        len(container) >= n,
        f"out-container of size {len(container)} cannot hold {n} elements "
        f"under policy {policy.value}; pass resize_to_fit or grow_only",
    )
    if len(container) < n:
        raise BufferResizeError(
            f"container of size {len(container)} too small for {n} elements "
            f"under policy {policy.value}"
        )
    container[:n] = result


def check_array_capacity(capacity: int, needed: int, policy: ResizePolicy) -> None:
    """Validate a fixed-size (NumPy) referencing container against ``policy``.

    NumPy arrays cannot be grown in place (they are the analog of a
    fixed-capacity span), so the growing policies demand an exact fit.
    """
    if policy is ResizePolicy.NO_RESIZE:
        kassert(
            AssertionLevel.LIGHT,
            capacity >= needed,
            f"receive array of size {capacity} too small for {needed} elements; "
            f"allocate enough space or use a resizable container (list)",
        )
        if capacity < needed:
            raise BufferResizeError(
                f"array of size {capacity} too small for {needed} elements"
            )
    else:
        if capacity != needed:
            raise BufferResizeError(
                f"policy {policy.value} requires resizing to {needed} elements, but "
                f"NumPy arrays are fixed-size (capacity {capacity}); pass a list, "
                f"move the array in, or preallocate the exact size"
            )
