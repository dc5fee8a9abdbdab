"""Error handling and leveled assertions for the bindings layer.

The paper distinguishes (Section III-G):

- *usage errors* — caught as early as possible with human-readable messages
  (in C++ at compile time; here at call-plan compilation time, which happens
  once per parameter signature);
- *failures* — reported via exceptions (communication failures, truncation);
- *runtime assertions* — grouped into levels from lightweight checks to
  checks requiring additional communication, each level can be disabled.

The four parameter-contract errors word their own diagnostics, and one check
constructs them (:func:`repro.core.plans.contract_errors`): the call-plan
compiler raises the first, the static analyzer (``repro.analysis``) reports
each one's message — the runtime's, verbatim.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from enum import IntEnum
from typing import Callable, Iterator, Sequence, Union


class KampingError(Exception):
    """Base class for all bindings-layer errors."""


class UsageError(KampingError):
    """The call violates the operation's parameter contract."""


class MissingParameterError(UsageError):
    """A required named parameter was not supplied.

    The message names the missing parameter and the operation — the analog of
    the paper's readable ``static_assert`` diagnostics.
    """

    def __init__(self, op: str, key: str, required: Sequence[str]):
        self.op = op
        self.key = key
        super().__init__(
            f"{op}() is missing the required parameter '{key}'. "
            f"Required parameters: {', '.join(required)}."
        )


class UnsupportedParameterError(UsageError):
    """A named parameter that this operation does not accept was supplied.

    ``position`` is the offending argument's index in the call.
    """

    def __init__(self, op: str, key: str, allowed: Sequence[str],
                 position: int):
        self.op = op
        self.key = key
        self.position = position
        super().__init__(
            f"{op}() does not accept the parameter '{key}'. "
            f"Accepted parameters: {', '.join(sorted(allowed))}."
        )


class DuplicateParameterError(UsageError):
    """The same named parameter was supplied more than once.

    ``keys`` may name several parameters: the contract check collects *every*
    duplicated key, so one diagnostic lists them all.
    """

    def __init__(self, op: str, keys: Union[str, Sequence[str]]):
        self.op = op
        self.keys = (keys,) if isinstance(keys, str) else tuple(keys)
        if len(self.keys) == 1:
            message = (f"{op}() received the parameter '{self.keys[0]}' "
                       f"more than once.")
        else:
            listed = ", ".join(f"'{k}'" for k in self.keys)
            message = f"{op}() received the parameters {listed} more than once."
        super().__init__(message)


class IgnoredParameterError(UsageError):
    """A parameter was supplied that the in-place variant would silently ignore.

    KaMPIng turns MPI's silent-ignore semantics (e.g. send count on an
    in-place allgather) into an error (Section III-G).  The message enumerates
    the parameters the call *does* accept.
    """

    def __init__(self, op: str, key: str, reason: str,
                 allowed: Sequence[str] = ()):
        self.op = op
        self.key = key
        message = (
            f"{op}(): parameter '{key}' would be ignored ({reason}); "
            f"remove it or use the non-in-place variant."
        )
        if allowed:
            message += f" Accepted parameters: {', '.join(sorted(allowed))}."
        super().__init__(message)


class BufferResizeError(KampingError):
    """A referencing out-container cannot hold the result under its resize policy."""


class TypeMappingError(KampingError):
    """A value could not be mapped to a wire datatype."""


class SerializationRequiredError(TypeMappingError):
    """The payload needs serialization but it was not explicitly enabled.

    The paper argues hidden serialization must never happen in zero-overhead
    bindings; this error tells the user to wrap the buffer in
    ``as_serialized(...)``.
    """


class TruncationError(KampingError):
    """A message was larger than the posted receive allows."""


class CommunicationFailure(KampingError):
    """A peer process failed during the operation (maps ULFM failures)."""

    def __init__(self, failed_ranks, message: str = ""):
        self.failed_ranks = tuple(failed_ranks)
        super().__init__(message or f"peer process(es) failed: {self.failed_ranks}")


class RevokedError(KampingError):
    """The communicator was revoked."""


class InFlightAccessError(KampingError):
    """A buffer taking part in a pending non-blocking operation was accessed."""


# ---------------------------------------------------------------------------
# leveled assertions (the KASSERT analog)
# ---------------------------------------------------------------------------

class AssertionLevel(IntEnum):
    """Assertion levels, ordered from free to expensive.

    ``COMMUNICATION``-level checks perform *additional communication* (e.g.
    verifying that all ranks pass consistent roots or equal send counts) and
    are therefore off by default, exactly as in the paper.
    """

    NONE = 0
    LIGHT = 1
    NORMAL = 2
    HEAVY = 3
    COMMUNICATION = 4


_state = threading.local()
_DEFAULT_LEVEL = AssertionLevel.NORMAL


def assertion_level() -> AssertionLevel:
    """The calling thread's current assertion level."""
    return getattr(_state, "level", _DEFAULT_LEVEL)


def set_assertion_level(level: AssertionLevel) -> None:
    """Set the calling thread's assertion level."""
    _state.level = AssertionLevel(level)


@contextmanager
def assertions(level: AssertionLevel) -> Iterator[None]:
    """Temporarily run with a different assertion level."""
    old = assertion_level()
    set_assertion_level(level)
    try:
        yield
    finally:
        set_assertion_level(old)


def kassert(level: AssertionLevel, condition_or_thunk, message: str) -> None:
    """Check ``condition`` if the current level enables it.

    ``condition_or_thunk`` may be a boolean or a zero-argument callable; the
    callable form avoids evaluating expensive conditions when the level is
    disabled (the analog of compiling assertions out).
    """
    if assertion_level() < level:
        return
    condition = (
        condition_or_thunk() if callable(condition_or_thunk) else condition_or_thunk
    )
    if not condition:
        raise AssertionError(f"[kassert/{AssertionLevel(level).name}] {message}")
