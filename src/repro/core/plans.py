"""Call-plan compilation and caching — the template-instantiation analog.

In C++ KaMPIng, the combination of named parameters a call site uses is fixed
at compile time; template metaprogramming instantiates exactly the code paths
needed (checking presence, computing defaults) with zero runtime dispatch.

Python has no compile time, so the library compiles a **call plan** the first
time it sees an ``(operation, parameter-signature)`` pair.  Compilation
(:func:`compile_plan`) does two things, once:

- it validates the signature against the operation's :class:`OpSpec`
  (:func:`contract_errors`: unknown / duplicate / missing / ignored
  parameters, out-parameters the operation does not return) — every usage
  error surfaces here and nothing invalid is cached;
- it hands the validated :class:`CallPlan` to the operation's *builder*
  (``OpSpec.build``), which returns the closure ``run(comm, params)`` with
  everything the signature decides already decided: the position of each
  parameter in the argument tuple, the defaults of absent ones, which
  count/displacement inference steps run at all, the encoder for the send
  container's kind, and how each out-value is delivered (bare value /
  ``MPIResult`` / in-place write).

A steady-state call is therefore: the tuple of the parameters' interned
signature tokens (:mod:`repro.core.parameters` computes them at
construction) → one dictionary probe → one call of the cached closure.
:class:`PlanCache` is that ``key → compiled callable`` table and nothing
more; the communication-plan IR's replayer uses it with its own keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from typing import Any, Callable, Hashable, Optional, Sequence

from repro.core.errors import (
    DuplicateParameterError,
    IgnoredParameterError,
    MissingParameterError,
    UnsupportedParameterError,
    UsageError,
)
from repro.core.parameters import (
    INOUT, OUT, Parameter, Signature, is_registered)


@dataclass(frozen=True, eq=False)
class OpSpec:
    """Parameter contract of one wrapped MPI operation, and its builder.

    Specs compare by identity: each is declared once, and plan-cache keys
    hash them on every call.
    """

    name: str
    #: keys that must be present (as in-parameters)
    required: tuple[str, ...] = ()
    #: keys that may be present; everything else is rejected with a clear error
    optional: tuple[str, ...] = ()
    #: keys the caller may request as out-parameters
    out_allowed: tuple[str, ...] = ()
    #: out keys implicitly produced even when not requested (recv_buf, usually)
    implicit_out: tuple[str, ...] = ()
    #: pairs (present_key, forbidden_key, reason): presence of one key makes
    #: another an error — e.g. in-place buffers make send_buf an ignored
    #: parameter, which KaMPIng diagnoses instead of silently ignoring
    conflicts: tuple[tuple[str, str, str], ...] = ()
    #: ``build(plan) -> run(comm, params)``: specialises the operation for one
    #: validated parameter signature (called by :func:`compile_plan`)
    build: Callable[["CallPlan"], Callable[..., Any]] = field(kw_only=True)

    @cached_property
    def allowed(self) -> frozenset[str]:
        return frozenset(self.required) | frozenset(self.optional) | frozenset(
            self.out_allowed
        )


@dataclass
class CallPlan:
    """What compilation resolved for one (operation, parameter-signature) pair.

    Builders read it at compile time; per call only :attr:`run` is used.
    """

    spec: OpSpec
    #: position of each present key in the argument tuple
    index: dict[str, int]
    #: payload-free ``Parameter.signature()`` of each argument, by position
    signatures: tuple[Signature, ...]
    #: out keys to return, in result order (recv_buf first, then call order)
    out_keys: tuple[str, ...] = ()
    #: out keys written into caller-supplied referencing containers
    referencing_out: frozenset[str] = frozenset()
    #: the specialised operation: ``run(comm, params)``
    run: Optional[Callable[..., Any]] = None

    def pos(self, key: str) -> int:
        """Position of ``key`` in the argument tuple (−1: absent)."""
        return self.index.get(key, -1)

    def sig(self, key: str) -> Optional[Signature]:
        """Signature of the argument passing ``key`` (``None``: absent)."""
        i = self.index.get(key, -1)
        return self.signatures[i] if i >= 0 else None

    def in_pos(self, key: str) -> int:
        """Position of ``key`` only when it was passed as an *input* with data.

        An out-parameter's container is target storage, not input — e.g.
        ``recv_counts_out(buffer)`` must still trigger count inference, and
        so does ``recv_counts(None)``.
        """
        sig = self.sig(key)
        if sig is None or sig.direction == OUT or not sig.has_data:
            return -1
        return self.index[key]

    def kind(self, key: str) -> str:
        """Container kind of ``key``'s payload (``"none"`` when absent)."""
        sig = self.sig(key)
        return sig.kind if sig is not None else "none"

    def wants(self, key: str) -> bool:
        """Does the caller get ``key`` back (by value or in place)?"""
        return key in self.out_keys or key in self.referencing_out

    # When both hold a builder returns a straight-line closure: nothing to
    # encode on the way in, nothing to decode, pack or write on the way out.

    def sends_array_whole(self, key: str = "send_buf",
                          count_key: str = "send_count") -> bool:
        """Is ``key`` an ndarray sent as it is — no ``count_key`` slices it?"""
        return self.kind(key) == "array" and self.pos(count_key) < 0

    def returns_bare(self, key: str) -> bool:
        """Is the by-value ``key`` the whole result — nothing else requested,
        nothing written in place, no moved-in storage to reuse?"""
        sig = self.sig(key)
        return (self.out_keys == (key,) and not self.referencing_out
                and not (sig is not None and sig.moved and sig.has_data))


_token_of = attrgetter("token")


class PlanCache:
    """``key → compiled callable``, compiled once per key.

    ``compilations`` counts factory invocations (cache misses), ``hits``
    counts steady-state lookups that returned a cached artifact without
    re-validating — the pair the overhead benchmarks and the IR replay tests
    pin to prove nothing is re-done per call.  A disabled cache stores
    nothing, so every lookup compiles: the always-revalidate baseline the
    benchmarks compare against.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._cache: dict[Hashable, Any] = {}
        #: the bare probe, ``key → artifact or None``, uncounted: a caller
        #: that inlines the hit path counts its own ``hits``
        self.probe = self._cache.get
        self.compilations = 0
        self.hits = 0

    def compiled(self, key: Hashable, factory: Callable[..., Any],
                 *args: Any) -> Any:
        """The artifact cached under ``key``, built by ``factory(*args)`` on
        a miss.  A factory that raises leaves nothing behind."""
        artifact = self._cache.get(key)
        if artifact is not None:
            self.hits += 1
            return artifact
        artifact = factory(*args)
        if self.enabled:
            self._cache[key] = artifact
        self.compilations += 1
        return artifact

    def lookup(self, spec: OpSpec, params: Sequence[Parameter]) -> "CallPlan":
        """The plan for calling ``spec`` with ``params``; its ``run`` is the
        specialised operation.  On a hit nothing about ``params`` is examined
        beyond the tokens the factories interned at construction."""
        try:
            key = (spec, *map(_token_of, params))
        except AttributeError:  # a positional argument that is no Parameter
            key = None
        return self.compiled(key, compile_plan, spec, params)

    def clear(self) -> None:
        self._cache.clear()
        self.compilations = 0
        self.hits = 0


def contract_errors(spec: OpSpec, args: Sequence[Any]) -> list[UsageError]:
    """The contract errors of calling ``spec`` with these arguments, of
    which only ``key`` and ``direction`` are read (a :class:`Signature`, or
    a factory call the linter resolved): :func:`compile_plan` raises the
    first, reprolint reports them all.  In order: keys not accepted (one per
    argument), the duplicated keys, required keys absent, keys an in-place
    variant ignores, out-parameters not returned (one per argument), and
    required keys passed only as out-parameters (``send_counts_out()``).
    """
    op, allowed, out_allowed = spec.name, spec.allowed, spec.out_allowed
    errors: list[UsageError] = []
    refused: list[UsageError] = []
    seen: set[str] = set()
    duplicated: list[str] = []
    outs: list[str] = []
    for position, arg in enumerate(args):
        key, direction = arg.key, arg.direction
        if key not in allowed:
            errors.append(UnsupportedParameterError(op, key, tuple(allowed),
                                                    position))
        elif direction == OUT:
            outs.append(key)
            if key not in out_allowed:
                refused.append(UnsupportedParameterError(
                    op, key, out_allowed, position))
        if key not in seen:
            seen.add(key)
        elif key not in duplicated:
            duplicated.append(key)
    if duplicated:
        errors.append(DuplicateParameterError(op, duplicated))
    for req in spec.required:
        if req not in seen:
            errors.append(MissingParameterError(op, req, spec.required))
    for present, forbidden, reason in spec.conflicts:
        if present in seen and forbidden in seen:
            errors.append(IgnoredParameterError(op, forbidden, reason,
                                                tuple(allowed)))
    if outs:  # the last two kinds are both about out-parameters
        errors += refused
        for req in spec.required:
            if req in outs and all(arg.direction == OUT
                                   for arg in args if arg.key == req):
                errors.append(MissingParameterError(op, req, spec.required))
    return errors


def compile_plan(spec: OpSpec, params: Sequence[Parameter]) -> CallPlan:
    """Validate a parameter signature against ``spec`` and build its plan.

    All usage errors surface here — once per call-site signature — with
    human-readable messages naming the operation and the offending parameter
    (:func:`contract_errors`).  The validated plan then goes to
    ``spec.build``, whose closure becomes ``plan.run``.
    """
    index: dict[str, int] = {}
    for i, p in enumerate(params):
        if not isinstance(p, Parameter):
            raise UsageError(
                f"{spec.name}() arguments must be named parameters "
                f"(send_buf(...), recv_counts_out(), ...); got {type(p).__name__}"
            )
        key = p.token.key
        if not is_registered(key):
            raise UsageError(f"unknown parameter key {key!r}")
        index[key] = i
    signatures = tuple(map(_token_of, params))
    errors = contract_errors(spec, signatures)
    if errors:
        raise errors[0]

    # out-parameter handling: a requested out key is "owning" (returned by
    # value) when no container was supplied or the container was moved in;
    # otherwise it is "referencing" (written in place, not returned).
    owning: list[str] = []
    referencing: list[str] = []
    for sig in signatures:
        if sig.direction != OUT and (sig.direction != INOUT
                                     or sig.key not in spec.out_allowed):
            continue  # pure input (inout data this op only reads included)
        # Only mutable containers passed by reference are written in place;
        # wrappers, scalars, and moved-in containers are returned by value.
        if sig.has_data and not sig.moved and sig.kind in ("array", "list"):
            referencing.append(sig.key)
        else:
            owning.append(sig.key)

    # implicit outs (normally recv_buf) are produced even when not requested
    for key in spec.implicit_out:
        if key not in index:
            owning.insert(0, key)

    # deterministic result order: implicit/explicit recv_buf first, then the
    # remaining owning outs in call order (paper: structured bindings)
    if len(owning) > 1:
        owning.sort(key=lambda k: (k not in ("recv_buf", "send_recv_buf"),
                                   index.get(k, -1)))
    plan = CallPlan(spec, index, signatures, tuple(owning),
                    frozenset(referencing))
    plan.run = spec.build(plan)
    return plan
