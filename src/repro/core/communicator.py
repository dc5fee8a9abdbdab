"""The KaMPIng ``Communicator`` — wrapped MPI operations with named parameters.

Every wrapped operation is *compiled* once per call-site signature
(:mod:`repro.core.plans`) and from then on merely called, so this module is
written in two tenses.  A **builder** (the ``@_op`` functions in the class
body; their docstrings document the operations) runs at compile time: it
reads the validated :class:`~repro.core.plans.CallPlan` — which parameters
the signature has, where, of which container kind, moved or referenced — and
returns the closure ``run(comm, params)`` in which all of that is decided.
The closure runs per call.  It

1. encodes the send data through the type system (§III-D);
2. infers every omitted parameter the way the paper describes — e.g.
   ``allgatherv`` without receive counts performs one raw ``allgather`` of
   the local count followed by a local exclusive prefix sum (§III-A, Fig. 2);
3. issues exactly the expected raw MPI calls (verifiable through the PMPI
   counters, §III-H);
4. returns requested out-parameters by value — or writes them into
   caller-supplied containers under their resize policies (§III-B/C).

A :class:`Communicator` method is the same three steps for every operation
(:func:`_method`): look the plan up, run it, translate raw failures (§III-G).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.core import types as _types
from repro.core.buffers import poison_if_array
from repro.core.errors import (
    AssertionLevel,
    CommunicationFailure,
    RevokedError,
    TruncationError,
    UsageError,
    assertion_level,
    kassert,
)
from repro.core.nonblocking import NonBlockingResult
from repro.core.parameters import INOUT, Parameter
from repro.core.plans import CallPlan, OpSpec, PlanCache, _token_of
from repro.core.resize import (
    ResizePolicy,
    apply_policy_to_list,
    check_array_capacity,
)
from repro.core.result import pack_result
from repro.mpi.collectives import CALLS
from repro.mpi.constants import ANY_SOURCE, ANY_TAG
from repro.mpi.context import RawComm
from repro.mpi.errors import (
    RawCommRevoked,
    RawProcessFailure,
    RawTruncationError,
    RawUsageError,
    UnsupportedOnBackend,
)

#: raw failures the bindings translate (:meth:`Communicator._translate`)
_RAW_ERRORS = (RawProcessFailure, RawCommRevoked, RawTruncationError,
               RawUsageError)

#: ``run(comm, params)``: an operation specialised for one call-site signature
Run = Callable[..., Any]
Builder = Callable[[CallPlan], Run]

# ---------------------------------------------------------------------------
# compile-time pieces shared by the builders
# ---------------------------------------------------------------------------


def _arg(plan: CallPlan, key: str, default: Any = None) -> Callable[[Sequence], Any]:
    """``get(params)`` for an optional input: its payload where the signature
    has the parameter, ``default`` where it omits it."""
    i = plan.pos(key)
    if i < 0:
        return lambda params: default
    return lambda params: params[i].data


def _sender(plan: CallPlan, key: str = "send_buf",
            count_key: str = "send_count") -> Callable[..., tuple]:
    """``encode(comm, params) -> (payload, decode, scalar)`` for the container
    kind of ``key``: an ndarray is its own payload and needs no decoding;
    everything else goes through the type system (§III-D)."""
    i, c = plan.pos(key), plan.pos(count_key)
    if i < 0:
        _types.encode_send(None)  # raises: the signature has nothing to send
    if plan.kind(key) == "array":
        def encode(comm, params):
            data = params[i].data
            if data.dtype.hasobject:
                _types.encode_send(data)  # raises SerializationRequiredError
            if c >= 0:
                data = _apply_send_count(data, params[c].data)
            return data, _types._identity, False
    else:
        def encode(comm, params):
            wire = comm._encode(params[i].data)
            payload = wire.payload
            if c >= 0:
                payload = _apply_send_count(payload, params[c].data)
            return payload, wire.decode, wire.scalar
    return encode


def _packer(plan: CallPlan, *keys: str) -> Callable[..., Any]:
    """``finish(params, *values)`` routing the produced out-values (one per
    entry of ``keys``): in-place write, or by-value return (§III-B)."""
    returned = []  # (slot in values, position of a moved-in container or -1)
    for key in plan.out_keys:
        if key in keys:
            sig = plan.sig(key)
            moved_in = sig is not None and sig.moved and sig.has_data
            returned.append((keys.index(key), plan.pos(key) if moved_in else -1))
    written = [(keys.index(key), plan.index[key]) for key in keys
               if key in plan.referencing_out]

    if plan.out_keys and plan.returns_bare(plan.out_keys[0]):
        slot = returned[0][0]  # the common case: one bare value
        return lambda params, *values: values[slot]

    def finish(params, *values):
        entries = [
            (keys[slot], values[slot] if i < 0
             else _reuse_storage(params[i].data, values[slot]))
            for slot, i in returned
        ]
        for slot, i in written:
            _write_into(params[i].data, values[slot], params[i].resize)
        return pack_result(entries)

    return finish


def _receiver(plan: CallPlan) -> Callable[..., Any]:
    """``deliver(comm, params, (payload, status))`` for recv/irecv: the
    message as the caller asked for it — deserialized, checked against
    ``recv_count`` — and packed with the status."""
    count = plan.pos("recv_count")
    wrapper = (plan.pos("recv_buf")
               if plan.kind("recv_buf") == "deserializable" else -1)
    finish = _packer(plan, "recv_buf", "status")

    if _receives_bare(plan):
        return lambda comm, params, received: received[0]
    if count < 0 and wrapper < 0:  # nothing to check, nothing to decode
        return lambda comm, params, received: finish(params, *received)

    def deliver(comm, params, received):
        payload, status = received
        if wrapper >= 0:
            comm._charge_serialization(status.nbytes)
        if count >= 0 and _length_of(payload) > params[count].data:
            raise TruncationError(
                f"message with {_length_of(payload)} elements exceeds "
                f"recv_count({params[count].data})"
            )
        value = _types.decode_recv(
            payload, params[wrapper].data if wrapper >= 0 else None)
        return finish(params, value, status)

    return deliver


def _receives_bare(plan: CallPlan) -> bool:
    """Is a receive's value the message as it arrived — no ``recv_count`` to
    check it against, no wrapper to decode it, no status to pack it with?"""
    return (plan.pos("recv_count") < 0 and plan.returns_bare("recv_buf")
            and plan.kind("recv_buf") != "deserializable")


def _matching(plan: CallPlan) -> tuple:
    """Getters of the ``(source, tag)`` a receive matches (default: any)."""
    return _arg(plan, "source", ANY_SOURCE), _arg(plan, "tag", ANY_TAG)


def _in_flight(comm: "Communicator", request: Any, data: Any, op_name: str,
               **owned: Any) -> NonBlockingResult:
    """The result of a non-blocking operation sending ``data``: an ndarray is
    write-protected until completion (and known to the MPIsan auditor)."""
    poison = poison_if_array(data)
    auditor = comm.raw.machine.auditor
    if poison is not None and auditor is not None:
        auditor.track_poison(poison, comm.raw, op=op_name)
    return NonBlockingResult(
        request, poisons=[] if poison is None else [poison], **owned)


def _need_topology(raw: RawComm) -> tuple:
    if raw.topology is None:
        raise UsageError(
            "neighbor collectives need a topology communicator; create "
            "one with with_topology(sources, destinations)"
        )
    return raw.topology


_SEND = dict(required=("send_buf", "destination"), optional=("tag", "send_count"))
_RECV = dict(optional=("source", "tag", "recv_count"),
             out_allowed=("recv_buf", "status"), implicit_out=("recv_buf",))


def _sending(plan: CallPlan, name: str) -> Run:
    """send/ssend, and isend/issend whose result owns the buffer."""
    encode, tag = _sender(plan), _arg(plan, "tag", 0)
    buf, dest = plan.index["send_buf"], plan.index["destination"]

    if CALLS[name].request:
        sig = plan.sig("send_buf")
        re_returned = sig.moved or sig.direction == INOUT  # handed back by wait()

        def run(comm, params):
            request = getattr(comm.raw, name)(
                encode(comm, params)[0], params[dest].data, tag(params))
            data = params[buf].data
            return _in_flight(comm, request, data, name,
                              held=data if re_returned else None)
    elif name == "send" and plan.sends_array_whole() and plan.pos("tag") < 0:
        def run(comm, params):  # straight line: the array as it is, tag 0
            data = params[buf].data
            if data.dtype.hasobject:
                _types.encode_send(data)  # raises SerializationRequiredError
            comm.raw.send(data, params[dest].data, 0)
    else:
        def run(comm, params):
            getattr(comm.raw, name)(
                encode(comm, params)[0], params[dest].data, tag(params))
    return run


def _allgather_inplace(plan: CallPlan) -> Run:
    buf = plan.index["send_recv_buf"]
    moved, kind = plan.sig("send_recv_buf").moved, plan.kind("send_recv_buf")

    def run(comm, params):
        raw, data = comm.raw, params[buf].data
        n = _length_of(data)
        if n % raw.size != 0:
            raise UsageError(
                f"in-place allgather buffer has {n} elements, not divisible by "
                f"communicator size {raw.size}"
            )
        b = n // raw.size
        own = np.asarray(data)[raw.rank * b:(raw.rank + 1) * b]
        full = _concat_wire(raw.allgather(own))
        if not moved and kind in ("array", "list"):
            data[:] = full if kind == "array" else full.tolist()
            return None
        value = _reuse_storage(data, full) if moved else full
        if kind == "list" and isinstance(value, np.ndarray):
            value = value.tolist()
        return value
    return run


#: what bcast sends as it is, so that receivers see the same shape
_BCAST_AS_IS = (bool, int, float, complex, str, bytes, np.integer, np.floating)


# ---------------------------------------------------------------------------
# declaring operations
# ---------------------------------------------------------------------------

SPECS: dict[str, OpSpec] = {}


def _op(name: str, **contract: Any) -> Callable[[Builder], Any]:
    """Declare a wrapped operation in the :class:`Communicator` body: the
    parameter contract here, the user documentation and the *builder* in the
    decorated function — which becomes the method (:func:`_method`)."""
    def declare(build: Builder) -> Callable[..., Any]:
        spec = SPECS[name] = OpSpec(name=name, build=build, **contract)
        return _method(spec)
    return declare


def _like(name: str) -> Callable[[Builder], Any]:
    """A further operation validated by ``name``'s contract (``ibcast`` by
    ``bcast``'s, ``probe`` by ``recv``'s), with its own builder."""
    return lambda build: _method(replace(SPECS[name], build=build))


def _method(spec: OpSpec) -> Callable[..., Any]:
    """What every wrapped operation does per call: probe the plan table with
    the parameters' signature tokens, run the plan, translate raw failures
    (§III-G).  What the probe cannot answer — a first call, a disabled cache,
    an argument that is no parameter — goes to ``PlanCache.lookup``.  The
    method carries the ``spec`` it serves, for ``repro.analysis`` to read."""
    def method(self: "Communicator", *params: Parameter) -> Any:
        plans = self._plans
        try:
            match params:  # the key of lookup(); as a tuple display where
                case (a, b):  # the arity is usual: a third of map()'s cost
                    plan = plans.probe((spec, a.token, b.token))
                case (a,):
                    plan = plans.probe((spec, a.token))
                case (a, b, c):
                    plan = plans.probe((spec, a.token, b.token, c.token))
                case _:
                    plan = plans.probe((spec, *map(_token_of, params)))
        except AttributeError:  # no Parameter: compile_plan says which
            plan = None
        try:
            if plan is None:
                plan = plans.lookup(spec, params)
            else:
                plans.hits += 1
            return plan.run(self, params)
        except _RAW_ERRORS as exc:
            self._translate(exc)

    method.__name__ = spec.build.__name__
    method.__qualname__ = f"Communicator.{method.__name__}"
    method.__doc__ = spec.build.__doc__
    method.spec = spec  # type: ignore[attr-defined]
    return method


def _forwards_to(name: str) -> Callable[[Callable[..., Any]], Any]:
    """A method that calls operation ``name``'s, and so is checked by its
    contract: it carries ``name``'s spec as every :func:`_method` does."""
    def stamp(method: Callable[..., Any]) -> Callable[..., Any]:
        method.spec = SPECS[name]  # type: ignore[attr-defined]
        return method
    return stamp


#: shared across communicators; plans are rank-independent
_GLOBAL_PLAN_CACHE = PlanCache()


class Communicator:
    """Wrapped communicator offering the full range of abstraction levels."""

    def __init__(self, raw: RawComm, plan_cache: Optional[PlanCache] = None):
        self.raw = raw
        self._plans = plan_cache if plan_cache is not None else _GLOBAL_PLAN_CACHE

    # -- introspection ------------------------------------------------------

    @property
    def rank(self) -> int:
        return self.raw.rank

    @property
    def size(self) -> int:
        return self.raw.size

    def is_root(self, root: int = 0) -> bool:
        return self.rank == root

    def compute(self, seconds: float) -> None:
        """Charge local computation time to the virtual clock."""
        self.raw.compute(seconds)

    # -- communicator management ---------------------------------------------

    def split(self, color: Optional[int], key: Optional[int] = None
              ) -> Optional["Communicator"]:
        sub = self._guard(lambda: self.raw.split(color, key))
        return type(self)(sub) if sub is not None else None

    def dup(self) -> "Communicator":
        return type(self)(self._guard(self.raw.dup))

    def with_topology(self, sources: Sequence[int], destinations: Sequence[int]
                      ) -> "Communicator":
        """Create a neighborhood-topology communicator."""
        raw = self._guard(
            lambda: self.raw.dist_graph_create_adjacent(sources, destinations)
        )
        return type(self)(raw)

    # -- collective algorithm tuning -----------------------------------------

    @contextmanager
    def use_algorithms(self, **selections: Any):
        """Pin collective algorithms for *this* communicator within the block.

        Each keyword names a collective; the value is either an algorithm
        name or a size-bucketed rules list ``[(max_bytes | None, name), ...]``
        applied first-match on the call's payload-size hint::

            with comm.use_algorithms(allgather="ring",
                                     bcast=[(1024, "binomial"),
                                            (None, "scatter_allgather")]):
                comm.allgather(send_buf(v))      # runs the ring algorithm

        The rules are installed *rank-locally* (they shadow the engine-wide
        tuning table for this communicator only; forced ``REPRO_COLL_<OP>``
        overrides still win), so entering and exiting the block can never
        race other ranks' selections; any pre-existing scoped rules are
        restored on exit.  SPMD contract: like the collectives themselves,
        every rank must enter the block with the same selections — a rank
        running ``ring`` against peers running ``bruck`` deadlocks just like
        a missing collective call would.
        """
        engine = self.raw.machine.engine
        overlay = self.raw._coll_tuning
        previous: dict[str, Any] = {}
        installed: list[str] = []
        try:
            for op, selection in selections.items():
                checked = self._guard(
                    lambda: engine.check_rules(op, selection))
                previous[op] = overlay.get(op)
                overlay[op] = checked
                installed.append(op)
            yield self
        finally:
            for op in installed:
                prior = previous[op]
                if prior is None:
                    overlay.pop(op, None)
                else:
                    overlay[op] = prior

    # -- plumbing ---------------------------------------------------------------

    def _guard(self, thunk):
        """Run ``thunk``, translating raw failures (§III-G)."""
        try:
            return thunk()
        except _RAW_ERRORS as exc:
            self._translate(exc)

    def _translate(self, exc: Exception) -> None:
        """Raise the bindings-layer exception for a raw failure (§III-G)."""
        if isinstance(exc, RawProcessFailure):
            self._handle_failure(CommunicationFailure(exc.failed_ranks, str(exc)))
        if isinstance(exc, RawCommRevoked):
            self._handle_failure(RevokedError(str(exc)))
        if isinstance(exc, UnsupportedOnBackend):
            raise exc  # names the backend and the way out: passed through
        if isinstance(exc, RawUsageError):
            raise UsageError(str(exc)) from exc
        raise TruncationError(str(exc)) from exc

    def _handle_failure(self, exc: Exception) -> None:
        """Error hook; plugins (e.g. ULFM) override ``on_error``."""
        on_error = getattr(self, "on_error", None)
        if on_error is not None:
            on_error(exc)
        raise exc

    def _encode(self, data: Any) -> _types.WireBuffer:
        wire = _types.encode_send(data)
        if wire.compute_bytes:
            self._charge_serialization(wire.compute_bytes)
        return wire

    def _charge_serialization(self, nbytes: int) -> None:
        self.raw.compute(nbytes * self.raw.machine.cost_model.ser_beta)

    def _assert_uniform_counts(self, op_name: str, count: int) -> None:
        """Heavy check: fixed-size collectives need equal counts on all ranks."""
        if assertion_level() < AssertionLevel.COMMUNICATION:
            return
        counts = self.raw.allgather(count)
        kassert(
            AssertionLevel.COMMUNICATION,
            len(set(counts)) == 1,
            f"{op_name} requires equal send counts on all ranks, got {counts}",
        )

    # -- point-to-point ----------------------------------------------------------

    @_op("send", **_SEND)
    def send(plan: CallPlan) -> Run:
        """Blocking standard send: ``send(send_buf(v), destination(d))``."""
        return _sending(plan, "send")

    @_op("ssend", **_SEND)
    def ssend(plan: CallPlan) -> Run:
        """Blocking synchronous send."""
        return _sending(plan, "ssend")

    @_op("isend", out_allowed=("send_buf",), **_SEND)
    def isend(plan: CallPlan) -> Run:
        """Non-blocking send; moved-in buffers are re-returned on ``wait()``."""
        return _sending(plan, "isend")

    @_op("issend", out_allowed=("send_buf",), **_SEND)
    def issend(plan: CallPlan) -> Run:
        """Non-blocking synchronous send."""
        return _sending(plan, "issend")

    @_op("recv", **_RECV)
    def recv(plan: CallPlan) -> Run:
        """Blocking receive; the received data is the return value."""
        if _receives_bare(plan):  # straight line: the payload as it arrives
            s, t = plan.pos("source"), plan.pos("tag")
            return lambda comm, params: comm.raw.recv(
                params[s].data if s >= 0 else ANY_SOURCE,
                params[t].data if t >= 0 else ANY_TAG)[0]
        source, tag = _matching(plan)
        deliver = _receiver(plan)
        return lambda comm, params: deliver(
            comm, params, comm.raw.recv(source(params), tag(params)))

    @_op("irecv", **_RECV)
    def irecv(plan: CallPlan) -> Run:
        """Non-blocking receive; data is only reachable after completion
        (§III-E)."""
        source, tag = _matching(plan)
        deliver = _receiver(plan)
        return lambda comm, params: NonBlockingResult(
            comm.raw.irecv(source(params), tag(params)),
            assemble=lambda received: deliver(comm, params, received))

    @_like("recv")
    def probe(plan: CallPlan) -> Run:
        """Blocking probe (``recv``'s parameters) returning the matched
        message's status."""
        source, tag = _matching(plan)
        return lambda comm, params: comm.raw.probe(source(params), tag(params))

    # -- collectives -------------------------------------------------------------

    @_op("barrier")
    def barrier(plan: CallPlan) -> Run:
        """Synchronize all ranks (dissemination barrier)."""
        return lambda comm, params: comm.raw.barrier()

    @_op("bcast", required=("send_recv_buf",),
         optional=("root", "send_recv_count"),
         out_allowed=("send_recv_buf",), implicit_out=("send_recv_buf",))
    def bcast(plan: CallPlan) -> Run:
        """Broadcast: ``bcast(send_recv_buf(obj), root(r))``.

        Serialization wrappers are honoured transparently: the root encodes,
        all ranks decode (paper Fig. 11).
        """
        root = _arg(plan, "root", 0)
        buf, kind = plan.index["send_recv_buf"], plan.kind("send_recv_buf")
        serial = kind == "serialized"
        encode = _sender(plan, "send_recv_buf", "send_recv_count")
        finish = _packer(plan, "send_recv_buf")

        if (plan.sends_array_whole("send_recv_buf", "send_recv_count")
                and "send_recv_buf" in plan.referencing_out):
            r = plan.pos("root")

            def run(comm, params):  # straight line: a referenced array, filled
                raw, data = comm.raw, params[buf].data
                rt = params[r].data if r >= 0 else 0
                if raw.rank != rt:
                    value = raw.bcast(None, rt)
                else:
                    if data.dtype.hasobject:
                        _types.encode_send(data)  # raises
                    value = raw.bcast(data, rt)
                if value is not data:  # the root's own buffer is in place
                    _write_into(data, value, params[buf].resize)
            return run

        def run(comm, params):
            raw, rt, data = comm.raw, root(params), params[buf].data
            if raw.rank != rt:
                value = raw.bcast(None, rt)
                if serial:
                    comm._charge_serialization(len(value))
                    value = data.archive.loads(value)
            elif kind == "scalar" or (kind == "other"
                                      and isinstance(data, _BCAST_AS_IS)):
                value = raw.bcast(data, rt)
            else:
                payload, decode, _ = encode(comm, params)
                value = raw.bcast(payload, rt)
                value = data.obj if serial else decode(value)
            return finish(params, value)
        return run

    @_like("bcast")
    def ibcast(plan: CallPlan) -> Run:
        """Non-blocking broadcast (``bcast``'s parameters); the value is only
        reachable after wait()."""
        root, buf = _arg(plan, "root", 0), plan.index["send_recv_buf"]
        serial = plan.kind("send_recv_buf") == "serialized"

        def run(comm, params):
            raw, rt, data = comm.raw, root(params), params[buf].data
            is_root = raw.rank == rt
            payload = data if is_root else None
            if serial and is_root:
                payload = data.encode()
                comm._charge_serialization(len(payload))

            def assemble(value):
                if not serial:
                    return value
                if is_root:
                    return data.obj
                comm._charge_serialization(len(value))
                return data.archive.loads(value)

            return _in_flight(comm, raw.ibcast(payload, rt), data, "ibcast",
                              assemble=assemble)
        return run

    @_op("gather", required=("send_buf",), optional=("root",),
         out_allowed=("recv_buf",), implicit_out=("recv_buf",))
    def gather(plan: CallPlan) -> Run:
        """Fixed-size gather; the root receives the concatenation."""
        root, buf = _arg(plan, "root", 0), plan.index["send_buf"]
        finish = _packer(plan, "recv_buf")

        def run(comm, params):
            raw, rt = comm.raw, root(params)
            wire = comm._encode(params[buf].data)
            comm._assert_uniform_counts("gather", wire.count)
            blocks = raw.gather(wire.payload, rt)
            if raw.rank == rt:
                return finish(params,
                              _decode_blocks(wire.decode, wire.scalar, blocks))
        return run

    @_op("gatherv", required=("send_buf",),
         optional=("root", "recv_counts", "send_count"),
         out_allowed=("recv_buf", "recv_counts", "recv_displs"),
         implicit_out=("recv_buf",))
    def gatherv(plan: CallPlan) -> Run:
        """Variable gather with count inference.

        Without ``recv_counts`` the library gathers the per-rank counts to
        the root with one raw ``gather`` — the boilerplate of paper Fig. 2.
        """
        root, encode = _arg(plan, "root", 0), _sender(plan)
        given = plan.in_pos("recv_counts")
        want_displs = plan.wants("recv_displs")
        finish = _packer(plan, "recv_buf", "recv_counts", "recv_displs")

        def run(comm, params):
            raw, rt = comm.raw, root(params)
            payload, decode, _ = encode(comm, params)
            counts = (params[given].data if given >= 0
                      else raw.gather(_length_of(payload), rt))
            if counts is not None:
                counts = _as_int_list(counts)
            out = raw.gatherv(payload, counts, rt)
            if raw.rank == rt:
                displs = _exclusive_prefix(counts) if want_displs else None
                return finish(params, decode(out), counts, displs)
        return run

    @_op("scatter", optional=("send_buf", "root"),
         out_allowed=("recv_buf",), implicit_out=("recv_buf",))
    def scatter(plan: CallPlan) -> Run:
        """Fixed-size scatter: the root's ``send_buf`` is split into equal
        blocks."""
        root, buf = _arg(plan, "root", 0), _arg(plan, "send_buf")
        finish = _packer(plan, "recv_buf")

        def run(comm, params):
            raw, rt = comm.raw, root(params)
            if raw.rank != rt:
                return finish(params, raw.scatter(None, rt))
            data = buf(params)
            if data is None:
                raise UsageError("scatter requires send_buf on the root")
            wire = comm._encode(data)
            blocks = _equal_blocks(wire, raw.size, "scatter send_buf",
                                   f"communicator size {raw.size}")
            return finish(params, wire.decode(raw.scatter(blocks, rt)))
        return run

    @_op("scatterv",
         optional=("send_buf", "root", "send_counts", "send_displs"),
         out_allowed=("recv_buf", "recv_count"), implicit_out=("recv_buf",))
    def scatterv(plan: CallPlan) -> Run:
        """Variable scatter; receive counts are delivered by the scatter
        itself."""
        root, buf = _arg(plan, "root", 0), _arg(plan, "send_buf")
        counts_of = _arg(plan, "send_counts")
        displs = plan.in_pos("send_displs")
        finish = _packer(plan, "recv_buf", "recv_count")

        def run(comm, params):
            raw, rt = comm.raw, root(params)
            if raw.rank != rt:
                out = raw.scatterv(None, None, rt)
                return finish(params, out, _length_of(out))
            data, counts = buf(params), counts_of(params)
            if data is None or counts is None:
                raise UsageError(
                    "scatterv requires send_buf and send_counts on the root")
            wire = comm._encode(data)
            payload = wire.payload
            if displs >= 0:
                payload = _with_send_displs(payload, counts,
                                            params[displs].data)
            out = raw.scatterv(payload, _as_int_list(counts), rt)
            return finish(params, wire.decode(out), _length_of(out))
        return run

    @_op("allgather",
         optional=("send_buf", "send_recv_buf", "send_count"),
         out_allowed=("recv_buf", "send_recv_buf"),
         conflicts=(
             ("send_recv_buf", "send_buf",
              "the in-place variant takes its input from send_recv_buf"),
             ("send_recv_buf", "send_count",
              "the in-place variant derives the count from the buffer"),
         ))
    def allgather(plan: CallPlan) -> Run:
        """Fixed-size allgather, with the simplified in-place variant (§III-G).

        - ``allgather(send_buf(v))`` concatenates equal-size blocks.
        - ``allgather(send_recv_buf(data))`` takes input from the own block of
          ``data`` and fills the whole buffer — no ``MPI_IN_PLACE`` footguns.
        """
        if plan.pos("send_recv_buf") >= 0:
            return _allgather_inplace(plan)
        if plan.pos("send_buf") < 0:
            raise UsageError("allgather requires send_buf (or send_recv_buf)")
        encode = _sender(plan)
        # recv_buf is no implicit out here: a referenced container is written,
        # anything else gets the value back
        into = (plan.index["recv_buf"]
                if "recv_buf" in plan.referencing_out else -1)

        def run(comm, params):
            payload, decode, scalar = encode(comm, params)
            comm._assert_uniform_counts("allgather", _length_of(payload))
            value = _decode_blocks(decode, scalar, comm.raw.allgather(payload))
            if into < 0:
                return value
            _write_into(params[into].data, value, params[into].resize)
        return run

    @_like("allgather")
    def iallgather(plan: CallPlan) -> Run:
        """Non-blocking allgather of equal-size contributions."""
        if plan.pos("send_buf") < 0:
            raise UsageError("iallgather requires send_buf")
        encode, buf = _sender(plan), plan.index["send_buf"]

        def run(comm, params):
            payload, decode, scalar = encode(comm, params)
            return _in_flight(
                comm, comm.raw.iallgather(payload), params[buf].data,
                "iallgather",
                assemble=lambda blocks: _decode_blocks(decode, scalar, blocks))
        return run

    @_op("allgatherv", required=("send_buf",),
         optional=("send_count", "recv_counts", "recv_displs"),
         out_allowed=("recv_buf", "recv_counts", "recv_displs"),
         implicit_out=("recv_buf",))
    def allgatherv(plan: CallPlan) -> Run:
        """Variable allgather — the paper's running example (Fig. 1/2/3).

        Receive counts omitted ⇒ one raw ``allgather`` of the local count;
        displacements omitted ⇒ local exclusive prefix sum.  With counts and
        displacements provided, exactly one raw ``allgatherv`` is issued.
        """
        encode, given = _sender(plan), plan.in_pos("recv_counts")
        place = _recv_displs(plan)
        finish = _packer(plan, "recv_buf", "recv_counts", "recv_displs")

        if (plan.sends_array_whole() and plan.returns_bare("recv_buf")
                and place is None):
            buf = plan.index["send_buf"]

            def run(comm, params):  # straight line: array in, array out
                raw, data = comm.raw, params[buf].data
                if data.dtype.hasobject:
                    _types.encode_send(data)  # raises
                return raw.allgatherv(data, _as_int_list(
                    params[given].data if given >= 0
                    else raw.allgather(_length_of(data))))
            return run

        def run(comm, params):
            raw = comm.raw
            payload, decode, _ = encode(comm, params)
            counts = _as_int_list(params[given].data if given >= 0
                                  else raw.allgather(_length_of(payload)))
            out = raw.allgatherv(payload, counts)
            out, displs = place(params, out, counts) if place else (out, None)
            return finish(params, decode(out), counts, displs)
        return run

    @_op("alltoall", required=("send_buf",), optional=("send_count",),
         out_allowed=("recv_buf",), implicit_out=("recv_buf",))
    def alltoall(plan: CallPlan) -> Run:
        """Fixed-size all-to-all: ``send_buf`` holds ``size`` equal blocks."""
        buf, finish = plan.index["send_buf"], _packer(plan, "recv_buf")

        def run(comm, params):
            raw = comm.raw
            wire = comm._encode(params[buf].data)
            blocks = _equal_blocks(wire, raw.size, "alltoall send_buf",
                                   f"communicator size {raw.size}")
            out = _concat_wire(raw.alltoall(blocks))
            return finish(params, wire.decode(out))
        return run

    @_op("alltoallv", required=("send_buf", "send_counts"),
         optional=("send_displs", "recv_counts", "recv_displs"),
         out_allowed=("recv_buf", "recv_counts", "recv_displs"),
         implicit_out=("recv_buf",))
    def alltoallv(plan: CallPlan) -> Run:
        """Variable all-to-all with count inference (§III-A).

        Receive counts omitted ⇒ one raw ``alltoall`` exchanging the count
        vectors, then one raw ``alltoallv``.
        """
        encode, scounts_at = _sender(plan), plan.index["send_counts"]
        sdispls, given = plan.in_pos("send_displs"), plan.in_pos("recv_counts")
        place = _recv_displs(plan)
        finish = _packer(plan, "recv_buf", "recv_counts", "recv_displs")

        if (plan.sends_array_whole() and plan.returns_bare("recv_buf")
                and sdispls < 0 and place is None):
            buf = plan.index["send_buf"]

            def run(comm, params):  # straight line: array in, array out
                raw, data = comm.raw, params[buf].data
                if data.dtype.hasobject:
                    _types.encode_send(data)  # raises
                scounts = _as_int_list(params[scounts_at].data)
                if len(scounts) != raw.size:
                    raise _wrong_send_counts(scounts, raw.size)
                return raw.alltoallv(data, scounts, _as_int_list(
                    params[given].data if given >= 0
                    else raw.alltoall(list(scounts))))
            return run

        def run(comm, params):
            raw = comm.raw
            payload, decode, _ = encode(comm, params)
            scounts = _as_int_list(params[scounts_at].data)
            if len(scounts) != raw.size:
                raise _wrong_send_counts(scounts, raw.size)
            if sdispls >= 0:
                payload = _with_send_displs(payload, scounts,
                                            params[sdispls].data)
            rcounts = _as_int_list(params[given].data if given >= 0
                                   else raw.alltoall(list(scounts)))
            out = raw.alltoallv(payload, scounts, rcounts)
            out, rdispls = (place(params, out, rcounts) if place
                            else (out, None))
            return finish(params, decode(out), rcounts, rdispls)
        return run

    @_op("neighbor_alltoall", required=("send_buf",),
         out_allowed=("recv_buf",), implicit_out=("recv_buf",))
    def neighbor_alltoall(plan: CallPlan) -> Run:
        """Exchange one equal-size block per topology neighbor."""
        buf, finish = plan.index["send_buf"], _packer(plan, "recv_buf")

        def run(comm, params):
            raw = comm.raw
            _, destinations = _need_topology(raw)
            wire = comm._encode(params[buf].data)
            blocks = _equal_blocks(wire, len(destinations),
                                   "neighbor_alltoall send_buf",
                                   f"the {len(destinations)} destinations")
            return finish(params, _decode_blocks(wire.decode, wire.scalar,
                                                 raw.neighbor_alltoall(blocks)))
        return run

    @_op("neighbor_alltoallv", required=("send_buf", "send_counts"),
         optional=("recv_counts",),
         out_allowed=("recv_buf", "recv_counts"), implicit_out=("recv_buf",))
    def neighbor_alltoallv(plan: CallPlan) -> Run:
        """Variable neighborhood exchange with count inference.

        Receive counts omitted ⇒ one raw ``neighbor_alltoall`` exchanging the
        counts — Θ(degree), never Θ(p).
        """
        encode, scounts_at = _sender(plan), plan.index["send_counts"]
        given = plan.in_pos("recv_counts")
        finish = _packer(plan, "recv_buf", "recv_counts")

        def run(comm, params):
            raw = comm.raw
            _need_topology(raw)
            payload, decode, _ = encode(comm, params)
            scounts = _as_int_list(params[scounts_at].data)
            if given >= 0:
                rcounts = _as_int_list(params[given].data)
            else:
                rcounts = [int(c[0]) for c in
                           raw.neighbor_alltoall([[c] for c in scounts])]
            out = raw.neighbor_alltoallv(payload, scounts, rcounts)
            return finish(params, decode(out), rcounts)
        return run

    # -- reductions --------------------------------------------------------------

    @_op("reduce", required=("send_buf", "op"), optional=("root",),
         out_allowed=("recv_buf",), implicit_out=("recv_buf",))
    def reduce(plan: CallPlan) -> Run:
        """Rooted reduction; result delivered at the root only."""
        root, encode = _arg(plan, "root", 0), _sender(plan)
        op, finish = plan.index["op"], _packer(plan, "recv_buf")

        def run(comm, params):
            raw, rt = comm.raw, root(params)
            payload, decode, _ = encode(comm, params)
            out = raw.reduce(payload, params[op].data, rt)
            if raw.rank == rt:
                return finish(params, decode(out))
        return run

    @_op("allreduce", optional=("send_buf", "send_recv_buf"), required=("op",),
         out_allowed=("recv_buf", "send_recv_buf"),
         conflicts=(
             ("send_recv_buf", "send_buf",
              "the in-place variant takes its input from send_recv_buf"),
         ))
    def allreduce(plan: CallPlan) -> Run:
        """Reduction with the result on every rank."""
        op, inplace = plan.index["op"], plan.pos("send_recv_buf")
        sent = "send_recv_buf" if inplace >= 0 else "send_buf"
        encode = _sender(plan, sent)
        # where the result goes: over a referenced in-place array or list,
        # into a referenced recv_buf, or back by value
        overwrite = "send_recv_buf" in plan.referencing_out
        into = (plan.index["recv_buf"]
                if inplace < 0 and "recv_buf" in plan.referencing_out else -1)

        if plan.sends_array_whole(sent) and into < 0:
            buf = plan.index[sent]

            def run(comm, params):  # straight line: array in, array out
                data = params[buf].data
                if data.dtype.hasobject:
                    _types.encode_send(data)  # raises
                out = comm.raw.allreduce(data, params[op].data)
                if not overwrite:
                    return out
                data[:] = out
            return run

        def run(comm, params):
            payload, decode, _ = encode(comm, params)
            out = comm.raw.allreduce(payload, params[op].data)
            if overwrite:
                params[inplace].data[:] = decode(out)
            elif into < 0:
                return decode(out)
            else:
                _write_into(params[into].data, _ensure_seq(decode(out)),
                            params[into].resize)
        return run

    @_like("allreduce")
    def iallreduce(plan: CallPlan) -> Run:
        """Non-blocking allreduce (commutative operations)."""
        encode, op = _sender(plan), plan.index["op"]
        buf = plan.index["send_buf"]

        def run(comm, params):
            payload, decode, _ = encode(comm, params)
            request = comm.raw.iallreduce(payload, params[op].data)
            return _in_flight(comm, request, params[buf].data, "iallreduce",
                              assemble=decode)
        return run

    @_op("scan", required=("send_buf", "op"), out_allowed=("recv_buf",),
         implicit_out=("recv_buf",))
    def scan(plan: CallPlan) -> Run:
        """Inclusive prefix reduction."""
        encode, op = _sender(plan), plan.index["op"]
        finish = _packer(plan, "recv_buf")

        def run(comm, params):
            payload, decode, _ = encode(comm, params)
            out = comm.raw.scan(payload, params[op].data)
            return finish(params, decode(out))
        return run

    @_op("exscan", required=("send_buf", "op"), optional=("values_on_rank_0",),
         out_allowed=("recv_buf",), implicit_out=("recv_buf",))
    def exscan(plan: CallPlan) -> Run:
        """Exclusive prefix reduction; rank 0 yields ``values_on_rank_0`` (or
        the op identity) instead of MPI's undefined value."""
        encode, op = _sender(plan), plan.index["op"]
        finish = _packer(plan, "recv_buf")
        on_rank_0 = plan.pos("values_on_rank_0")

        def run(comm, params):
            raw = comm.raw
            payload, decode, _ = encode(comm, params)
            out = raw.exscan(payload, params[op].data)
            if raw.rank == 0:
                if on_rank_0 >= 0:
                    return finish(params, params[on_rank_0].data)
                if out is None:
                    raise UsageError(
                        "exscan on rank 0 is undefined for this op; pass "
                        "values_on_rank_0(...) or use an op with an identity"
                    )
                if (isinstance(payload, np.ndarray)
                        and isinstance(out, np.ndarray)):
                    out = out.astype(payload.dtype, copy=False)
            return finish(params, decode(out))
        return run

    @_forwards_to("bcast")
    def bcast_single(self, *params: Parameter) -> Any:
        """Broadcast of a single value."""
        return self.bcast(*params)

    @_forwards_to("reduce")
    def reduce_single(self, *params: Parameter) -> Any:
        """Reduction of a single value per rank."""
        return self.reduce(*params)

    @_forwards_to("allreduce")
    def allreduce_single(self, *params: Parameter) -> Any:
        """Allreduce of a single value per rank — e.g. the BFS termination check
        ``allreduce_single(send_buf(frontier_empty), op(logical_and))`` (Fig. 9)."""
        return self.allreduce(*params)

    @_forwards_to("scan")
    def scan_single(self, *params: Parameter) -> Any:
        return self.scan(*params)

    @_forwards_to("exscan")
    def exscan_single(self, *params: Parameter) -> Any:
        return self.exscan(*params)

    # -- one-sided communication -----------------------------------------------

    def win_create(self, local: Any) -> "Window":
        """Collectively create a safe RMA window over ``local`` memory."""
        from repro.core.rma import Window

        return Window(self, local)


# ---------------------------------------------------------------------------
# module-level helpers
# ---------------------------------------------------------------------------


def _ensure_seq(value: Any) -> Any:
    """Wrap a scalar so it can be written into a referencing container."""
    if isinstance(value, (np.ndarray, list)):
        return value
    return [value]


def _length_of(data: Any) -> int:
    if data is None:
        return 0
    if isinstance(data, (bytes, bytearray)):
        return len(data)
    if isinstance(data, np.ndarray):
        return len(data) if data.ndim else 1
    if hasattr(data, "__len__"):
        return len(data)
    return 1


def _as_int_list(counts: Any) -> list[int]:
    if isinstance(counts, np.ndarray):
        counts = counts.tolist()
    return list(map(int, counts))


def _wrong_send_counts(scounts: list, size: int) -> UsageError:
    return UsageError(
        f"send_counts has {len(scounts)} entries, expected {size}")


def _exclusive_prefix(counts: Sequence[int]) -> list[int]:
    displs = [0] * len(counts)
    run = 0
    for i, c in enumerate(counts):
        displs[i] = run
        run += int(c)
    return displs


def _apply_send_count(payload: Any, send_count: int) -> Any:
    if send_count > _length_of(payload):
        raise UsageError(
            f"send_count({send_count}) exceeds the send buffer size "
            f"{_length_of(payload)}"
        )
    return payload[:send_count]


def _equal_blocks(wire: _types.WireBuffer, parts: int, what: str, of: str) -> list:
    """Split an encoded send buffer into ``parts`` equal blocks."""
    if parts and wire.count % parts != 0:
        raise UsageError(
            f"{what} has {wire.count} elements, not divisible by {of}")
    b = wire.count // parts if parts else 0
    return [wire.payload[i * b:(i + 1) * b] for i in range(parts)]


def _with_send_displs(payload: Any, counts: Sequence[int],
                      displs: Optional[Sequence[int]]) -> Any:
    """Rearrange a send buffer described by explicit displacements into the
    contiguous layout the raw layer expects."""
    if displs is None:
        return payload
    arr = np.asarray(payload)
    parts = [
        arr[int(d): int(d) + int(c)] for c, d in zip(counts, displs)
    ]
    return np.concatenate(parts) if parts else arr[:0]


def _recv_displs(plan: CallPlan) -> Optional[Callable[..., tuple]]:
    """The ``recv_displs`` step of a general v-collective closure, chosen at
    compile time: ``place(params, out, counts) -> (out, displs)`` scatters
    the contiguously received blocks to the given displacements, or computes
    them for an out-parameter; ``None`` — no frame — when neither is asked."""
    placed = plan.in_pos("recv_displs")
    if placed < 0:
        if not plan.wants("recv_displs"):
            return None
        return lambda params, out, counts: (out, _exclusive_prefix(counts))

    def place(params, contiguous, counts):
        displs = _as_int_list(params[placed].data)
        if displs == _exclusive_prefix(counts):
            return contiguous, displs
        total = max((d + c for c, d in zip(counts, displs)), default=0)
        out = np.zeros(total, dtype=contiguous.dtype if len(contiguous)
                       else np.int64)
        offset = 0
        for c, d in zip(counts, displs):
            out[d: d + c] = contiguous[offset: offset + c]
            offset += c
        return out, displs
    return place


def _write_into(container: Any, value: Any, policy: ResizePolicy) -> None:
    """Write a produced out-value into a caller-supplied referencing container."""
    if value is container:
        return  # in place already (a bcast root's own buffer): nothing to copy
    if isinstance(container, list):
        seq = value.tolist() if isinstance(value, np.ndarray) else list(value)
        apply_policy_to_list(container, seq, policy)
        return
    if isinstance(container, np.ndarray):
        arr = np.asarray(value)
        check_array_capacity(len(container), len(arr), policy)
        container[: len(arr)] = arr
        return
    raise UsageError(
        f"cannot write into out-container of type {type(container).__name__}; "
        f"supported referencing containers: list, numpy.ndarray"
    )


def _reuse_storage(container: Any, value: Any) -> Any:
    """Reuse a moved-in container's storage when shapes allow (move semantics)."""
    if isinstance(container, np.ndarray) and isinstance(value, np.ndarray):
        if container.dtype == value.dtype and len(container) >= len(value):
            container[: len(value)] = value
            return container[: len(value)]
        return value
    if isinstance(container, list):
        container[:] = value.tolist() if isinstance(value, np.ndarray) else list(value)
        return container
    return value


def _decode_blocks(decode: Callable[[Any], Any], scalar: bool, blocks: list) -> Any:
    """Decode a gathered list of per-rank wire blocks.

    A scalar contribution per rank yields a list of p scalars; container
    contributions yield the decoded concatenation.
    """
    merged = _concat_wire(blocks)
    if scalar:
        return merged.tolist() if isinstance(merged, np.ndarray) else list(merged)
    return decode(merged)


def _concat_wire(blocks: list) -> Any:
    """Concatenate per-rank wire blocks, preserving array payloads."""
    if all(isinstance(b, np.ndarray) for b in blocks):
        return np.concatenate([b if b.ndim else b.reshape(1) for b in blocks])
    out: list = []
    for b in blocks:
        if isinstance(b, np.ndarray):
            out.extend(b.tolist())
        elif isinstance(b, (list, tuple)):
            out.extend(b)
        else:
            out.append(b)
    return np.asarray(out)
