"""``RawComm`` — the per-rank raw communicator handle (analog of ``MPI_Comm``).

This class mirrors the *C API's* semantics on purpose: variable-size
collectives require explicit counts, receives require the caller to know what
arrives, and nothing protects in-flight buffers.  All the convenience the
paper contributes lives one layer up in :mod:`repro.core`.

Every public method increments a PMPI-style per-rank call counter, which lets
tests reproduce the paper's methodology of asserting that the bindings issue
*exactly* the expected MPI calls (Section III-H).
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any, Hashable, Optional, Sequence

import numpy as np

from repro.mpi import nbc
from repro.mpi.algorithms import SINGLETON, Algorithm
from repro.mpi.collectives import COLLECTIVES, Collective
from repro.mpi.constants import ANY_SOURCE, ANY_TAG, PROC_NULL, collective_tag, validate_user_tag
from repro.mpi.costmodel import Clock
from repro.mpi.datatypes import payload_nbytes
from repro.mpi.errors import (
    RawCommRevoked,
    RawProcessFailure,
    RawUsageError,
)
from repro.mpi.machine import CommState, Machine
from repro.mpi.ops import Op
from repro.mpi.p2p import Envelope, Status
from repro.mpi.requests import (
    CompletedRequest,
    CounterBarrierRequest,
    RawRequest,
    RecvRequest,
    SyncSendRequest,
)
from repro.mpi.tracing import _NULL_SPAN, _sum_payload_bytes
from repro.mpi.waiting import Gate


#: the declarations as attributes (``_CALL.bcast``), for the one-line methods
_CALL = SimpleNamespace(**COLLECTIVES)


def _peer(rank: int) -> tuple[int, ...]:
    """Peer tuple for a possibly-sentinel rank (wildcards/PROC_NULL: empty)."""
    return (rank,) if rank >= 0 else ()


class RawComm:
    """Raw communicator handle owned by a single rank thread."""

    def __init__(self, machine: Machine, state: CommState, world_rank: int):
        self.machine = machine
        self.state = state
        self.world_rank = world_rank
        self._rank = state.local_of_world[world_rank]
        #: this rank's virtual clock
        self.clock: Clock = machine.clocks[world_rank]
        self._coll_seq = 0
        self._mgmt_seq = 0
        self._ibarrier_epoch = 0
        #: rank-local scoped tuning rules (``Communicator.use_algorithms``);
        #: rank-local so installing/removing them can never race other ranks
        self._coll_tuning: dict[str, tuple] = {}
        #: IR-pass provenance stamped on trace spans (set by the IR replayer
        #: around ops that a rewrite pass produced; ``None`` everywhere else)
        self._ir_pass: Optional[str] = None
        #: cluster-service job label stamped on trace spans (set by a service
        #: rank around the ops of a job; ``None`` everywhere else)
        self._job_label: Optional[str] = None

    # -- introspection -----------------------------------------------------

    @property
    def rank(self) -> int:
        """This process's rank within the communicator."""
        return self._rank

    @property
    def size(self) -> int:
        """Number of ranks in the communicator."""
        return self.state.size

    @property
    def comm_id(self) -> Hashable:
        return self.state.comm_id

    def compute(self, seconds: float) -> None:
        """Charge local computation time to the virtual clock."""
        self.clock.compute(seconds)

    # -- bookkeeping helpers ------------------------------------------------

    def _count(self, op: str) -> None:
        self.machine.profile[self.world_rank][op] += 1
        if self.machine.faults is not None:
            self.machine.faults.on_op(self, op)

    def _span(self, op: str, *, peers=(), tag=None, payload=None, sent=0,
              algorithm=None):
        """Open a trace span for one raw operation.

        Returns the shared no-op span when tracing is disabled, so untraced
        runs never size payloads and the virtual clocks stay untouched.
        ``peers`` holds communicator-local ranks, or the string ``"all"``
        for symmetric collectives (resolved lazily to all members).
        """
        tracer = self.machine.tracer
        if not tracer.enabled:
            return _NULL_SPAN
        if payload is not None:
            sent = _sum_payload_bytes(payload)
        return tracer.span(self, op, peers=peers, tag=tag, sent=sent,
                           algorithm=algorithm, ir_pass=self._ir_pass,
                           job=self._job_label)

    def _coll_algo(self, op: str, args: tuple = ()) -> Algorithm:
        """Resolve which algorithm runs one collective call.

        Singleton communicators always take the pure-local fast path (even
        under forced selection).  Otherwise the machine's engine decides; the
        ``nbytes`` hint — taken from ``args`` as the op's declaration says
        (:mod:`repro.mpi.collectives`) — is only computed when some configured
        policy will look at it, so the pure-default hot path sizes no payload.
        """
        if self.state.size == 1:
            algo = SINGLETON.get(op)
            if algo is not None:
                return algo
        engine = self.machine.engine
        scoped = self._coll_tuning.get(op)
        nbytes = 0
        if args and engine.size_sensitive(op, self.comm_id, scoped=scoped):
            call = COLLECTIVES[op]
            if call.hint == "payload":
                nbytes = _sum_payload_bytes(args[0])
            elif call.hint is not None:
                counts = args[call.params.index(call.hint)]
                nbytes = int(np.sum(counts)) * np.asarray(args[0]).itemsize
        algo = engine.resolve(op, p=self.state.size, nbytes=nbytes,
                              comm_id=self.comm_id, scoped=scoped)
        if self.machine.faults is not None:
            self.machine.faults.on_collective(self, op, algo.name)
        return algo

    def _check_usable(self) -> None:
        if self.state.waits.revoked:
            raise RawCommRevoked(f"communicator {self.comm_id!r} has been revoked")

    def _check_peer(self, rank: int) -> None:
        members = self.state.members
        if not 0 <= rank < len(members):
            raise RawUsageError(
                f"peer rank {rank} out of range for communicator of size {len(members)}"
            )
        failed = self.machine.failed
        if failed and members[rank] in failed:
            raise RawProcessFailure([members[rank]])

    def _next_coll_tag(self, code: int) -> int:
        tag = collective_tag(self._coll_seq, code)
        self._coll_seq += 1
        return tag

    # -- internal point-to-point (uncounted; also the schedule driver's steps) --

    def _deposit(self, payload: Any, dest: int, tag: int, sync: bool = False,
                 packed: bool = False) -> Envelope:
        machine = self.machine
        if machine.faults is not None:
            machine.faults.on_internal(self)
        if machine.failed or not 0 <= dest < len(self.state.members):
            self._check_peer(dest)  # the full check, only where it can raise
        clock = self.clock
        model = machine.cost_model
        nbytes = payload_nbytes(payload)
        clock.charge_overhead()
        if packed:
            arrival = clock.now + model.packed_transfer_time(nbytes)
        else:
            arrival = clock.now + model.transfer_time(nbytes)
        auditor = machine.auditor
        env = Envelope(self._rank, tag, payload, nbytes, arrival,
                       Gate() if sync else None, 0.0,
                       auditor.origin() if auditor.enabled else ())
        self.state.mailboxes[dest].deposit(env)
        return env

    def _recv(self, source: int, tag: int) -> tuple[Any, Status]:
        if self.machine.faults is not None:
            self.machine.faults.on_internal(self)
        clock = self.clock
        mb = self.state.mailboxes[self._rank]
        pr = mb.post(source, tag, clock.now)
        env = pr.envelope
        if env is None:  # not queued already: park until it arrives
            env = mb.wait(pr)
        clock.wait_until(env.arrival_time)
        clock.charge_overhead()
        return env.payload, Status(env.source, env.tag, env.nbytes)

    # -- point-to-point (public, counted) -----------------------------------

    def send(self, payload: Any, dest: int, tag: int = 0) -> None:
        """Standard-mode (buffered) send."""
        self._count("send")
        self._check_usable()
        if dest == PROC_NULL:
            return
        if not self.machine.tracer.enabled:
            self._deposit(payload, dest, validate_user_tag(tag))
            return
        with self._span("send", peers=(dest,), tag=tag, payload=payload):
            self._deposit(payload, dest, validate_user_tag(tag))

    def ssend(self, payload: Any, dest: int, tag: int = 0) -> None:
        """Synchronous send: returns only once the receiver matched the message."""
        self._count("ssend")
        self._check_usable()
        if dest == PROC_NULL:
            return
        with self._span("ssend", peers=(dest,), tag=tag, payload=payload):
            env = self._deposit(payload, dest, validate_user_tag(tag), sync=True)
            SyncSendRequest(env, self.clock, self.state.waits, dest).wait()

    def isend(self, payload: Any, dest: int, tag: int = 0) -> RawRequest:
        """Non-blocking standard send (buffered: completes immediately)."""
        self._count("isend")
        self._check_usable()
        if dest == PROC_NULL:
            return CompletedRequest()
        if not self.machine.tracer.enabled:
            self._deposit(payload, dest, validate_user_tag(tag))
            return CompletedRequest()
        with self._span("isend", peers=(dest,), tag=tag, payload=payload):
            self._deposit(payload, dest, validate_user_tag(tag))
        return CompletedRequest()

    def issend(self, payload: Any, dest: int, tag: int = 0) -> RawRequest:
        """Non-blocking synchronous send (used by the NBX sparse exchange)."""
        self._count("issend")
        self._check_usable()
        if dest == PROC_NULL:
            return CompletedRequest()
        with self._span("issend", peers=(dest,), tag=tag, payload=payload):
            env = self._deposit(payload, dest, validate_user_tag(tag), sync=True)
        req = SyncSendRequest(env, self.clock, self.state.waits, dest)
        auditor = self.machine.auditor
        if auditor.enabled:
            auditor.track_request(req, self, op="issend", peer=dest, tag=tag,
                                  nbytes=env.nbytes)
        return req

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> tuple[Any, Status]:
        """Blocking receive; returns ``(payload, status)``."""
        self._count("recv")
        self._check_usable()
        if source == PROC_NULL:
            return None, Status(PROC_NULL, tag, 0)
        if source != ANY_SOURCE:
            self._check_peer(source)
        if not self.machine.tracer.enabled:
            return self._recv(source, validate_user_tag(tag))
        with self._span("recv", peers=_peer(source), tag=tag) as sp:
            payload, status = self._recv(source, validate_user_tag(tag))
            sp.set(peers=(status.source,), tag=status.tag, recvd=status.nbytes)
        return payload, status

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> RecvRequest:
        """Non-blocking receive."""
        self._count("irecv")
        self._check_usable()
        if source != ANY_SOURCE:
            self._check_peer(source)
        mb = self.state.mailboxes[self._rank]
        if not self.machine.tracer.enabled:
            pr = mb.post(source, validate_user_tag(tag), self.clock.now)
        else:
            with self._span("irecv", peers=_peer(source), tag=tag):
                pr = mb.post(source, validate_user_tag(tag), self.clock.now)
        req = RecvRequest(mb, pr, self.clock)
        auditor = self.machine.auditor
        if auditor.enabled:
            pr.origin = auditor.origin()
            auditor.track_request(req, self, op="irecv", peer=source, tag=tag)
        return req

    def sendrecv(self, payload: Any, dest: int, source: int = ANY_SOURCE, *,
                 sendtag: int = 0, recvtag: int = ANY_TAG) -> tuple[Any, Status]:
        """Combined send and receive (``MPI_Sendrecv``).

        One raw call instead of a send/recv pair: the canonical shift
        primitive of ring schedules, and what the IR's ring-recognition pass
        rewrites aligned send/recv pairs into.  The send is standard-mode
        (buffered), so pairing it with the receive can never deadlock.
        """
        self._count("sendrecv")
        self._check_usable()
        if source not in (ANY_SOURCE, PROC_NULL):
            self._check_peer(source)
        traced = self.machine.tracer.enabled
        span = self._span("sendrecv", peers=_peer(dest) + _peer(source),
                          tag=sendtag, payload=payload) if traced else _NULL_SPAN
        with span as sp:
            if dest != PROC_NULL:
                self._deposit(payload, dest, validate_user_tag(sendtag))
            if source == PROC_NULL:
                return None, Status(PROC_NULL, recvtag, 0)
            out, status = self._recv(source, validate_user_tag(recvtag))
            if traced:
                sp.set(peers=_peer(dest) + (status.source,), recvd=status.nbytes)
        return out, status

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Status:
        """Blocking probe: wait for a matching message without receiving it."""
        self._count("probe")
        self._check_usable()
        with self._span("probe", peers=_peer(source), tag=tag) as sp:
            env = self.state.mailboxes[self._rank].probe(source, validate_user_tag(tag))
            sp.set(peers=(env.source,), tag=env.tag)
        return Status(env.source, env.tag, env.nbytes)

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG
               ) -> tuple[bool, Optional[Status]]:
        """Non-blocking probe."""
        self._count("iprobe")
        self._check_usable()
        with self._span("iprobe", peers=_peer(source), tag=tag) as sp:
            env = self.state.mailboxes[self._rank].iprobe(source, validate_user_tag(tag))
            if env is not None:
                sp.set(peers=(env.source,), tag=env.tag)
        if env is None:
            return False, None
        return True, Status(env.source, env.tag, env.nbytes)

    # -- synchronization -----------------------------------------------------

    def barrier(self) -> None:
        """Barrier (default algorithm: dissemination)."""
        self._collective(_CALL.barrier)

    def ibarrier(self) -> RawRequest:
        """Non-blocking barrier."""
        self._count("ibarrier")
        self._check_usable()
        with self._span("ibarrier", peers="all"):
            epoch = self._ibarrier_epoch
            self._ibarrier_epoch += 1
            self.clock.charge_overhead()
            ticket = self.state.barrier.arrive(epoch, self.clock.now)
        req = CounterBarrierRequest(self.state.barrier, ticket, self.clock)
        auditor = self.machine.auditor
        if auditor.enabled:
            auditor.track_request(req, self, op="ibarrier")
        return req

    # -- collectives ----------------------------------------------------------

    def _collective(self, call: Collective, *args: Any) -> Any:
        """The one body of every blocking collective.

        Everything that differs between them — who contributes the payload,
        who records received bytes, the trace peers, the hint convention — is
        read from the op's declaration in :mod:`repro.mpi.collectives`; span
        arguments are only built when the tracer is on.  The IR recorder
        overrides this method (and :meth:`_start`) to journal the call.
        """
        op = call.name
        self._count(op)
        self._check_usable()
        algo = self._coll_algo(op, args)
        if self.machine.tracer.enabled:
            span = self._span(op, peers=call.span_peers(args),
                              payload=call.payload(self._rank, args),
                              algorithm=algo.name)
        else:
            span = _NULL_SPAN
        with span as sp:
            out = algo.fn(self, *args)
            who = call.receives  # read here only, inline: the hot path
            if who == "all" or (self._rank == args[-1]) == (who == "root"):
                sp.set(recvd_payload=out)
        return out

    def bcast(self, payload: Any, root: int = 0) -> Any:
        return self._collective(_CALL.bcast, payload, root)

    def gather(self, payload: Any, root: int = 0) -> Optional[list]:
        return self._collective(_CALL.gather, payload, root)

    def gatherv(self, sendbuf: np.ndarray, recvcounts: Optional[Sequence[int]],
                root: int = 0) -> Optional[np.ndarray]:
        """Variable gather.  ``recvcounts`` is required at the root (C semantics)."""
        return self._collective(_CALL.gatherv, sendbuf, recvcounts, root)

    def scatter(self, payloads: Optional[Sequence[Any]], root: int = 0) -> Any:
        return self._collective(_CALL.scatter, payloads, root)

    def scatterv(self, sendbuf: Optional[np.ndarray],
                 sendcounts: Optional[Sequence[int]], root: int = 0) -> np.ndarray:
        return self._collective(_CALL.scatterv, sendbuf, sendcounts, root)

    def allgather(self, payload: Any) -> list:
        """Allgather of one payload per rank (default: Bruck, ⌈log p⌉ rounds)."""
        return self._collective(_CALL.allgather, payload)

    def allgatherv(self, sendbuf: np.ndarray,
                   recvcounts: Sequence[int]) -> np.ndarray:
        """Variable allgather.  ``recvcounts`` is required on all ranks (C semantics)."""
        return self._collective(_CALL.allgatherv, sendbuf, recvcounts)

    def alltoall(self, payloads: Sequence[Any]) -> list:
        return self._collective(_CALL.alltoall, payloads)

    def alltoallv(self, sendbuf: np.ndarray, sendcounts: Sequence[int],
                  recvcounts: Sequence[int]) -> np.ndarray:
        """Variable all-to-all (pairwise exchange: p−1 rounds, Θ(p) latency).

        ``recvcounts`` is required (C semantics) — the boilerplate count
        exchange this forces on users is exactly what the bindings remove.
        """
        return self._collective(_CALL.alltoallv, sendbuf, sendcounts,
                                recvcounts)

    def alltoallw(self, send_blocks: Sequence[Any]) -> list:
        """All-to-all with per-block derived datatypes.

        Models the documented penalty of the alltoallw path (per-peer datatype
        setup plus pack/unpack cost, paid even for empty blocks) that makes
        MPL's v-collectives slow (paper §II, §IV-B).
        """
        return self._collective(_CALL.alltoallw, send_blocks)

    def reduce(self, value: Any, op: Op, root: int = 0) -> Any:
        return self._collective(_CALL.reduce, value, op, root)

    def allreduce(self, value: Any, op: Op) -> Any:
        return self._collective(_CALL.allreduce, value, op)

    def scan(self, value: Any, op: Op) -> Any:
        """Inclusive prefix reduction."""
        return self._collective(_CALL.scan, value, op)

    def exscan(self, value: Any, op: Op) -> Any:
        """Exclusive prefix reduction (undefined — here: identity — on rank 0)."""
        return self._collective(_CALL.exscan, value, op)

    # -- non-blocking collectives (MPI-3) -----------------------------------------

    def _start(self, call: Collective, *args: Any) -> RawRequest:
        """The one body of every non-blocking collective: the blocking
        twin's declaration, started instead of waited (:mod:`repro.mpi.nbc`)."""
        return nbc.start(self, call, args)

    def ibcast(self, payload: Any, root: int = 0):
        """Non-blocking broadcast; complete with wait()/test() (``MPI_Ibcast``)."""
        return self._start(_CALL.bcast, payload, root)

    def iallreduce(self, value: Any, op: Op):
        """Non-blocking allreduce (``MPI_Iallreduce``, commutative ops)."""
        if not op.commutative:
            raise RawUsageError(
                "iallreduce supports commutative operations only; use the "
                "blocking allreduce for ordered reductions")
        return self._start(_CALL.allreduce, value, op)

    def iallgather(self, payload: Any):
        """Non-blocking allgather (``MPI_Iallgather``)."""
        return self._start(_CALL.allgather, payload)

    # -- neighborhood collectives ----------------------------------------------

    def neighbor_alltoall(self, payloads: Sequence[Any]) -> list:
        """Exchange one payload with each topology neighbor."""
        return self._collective(_CALL.neighbor_alltoall, payloads)

    def neighbor_alltoallv(self, sendbuf: np.ndarray, sendcounts: Sequence[int],
                           recvcounts: Sequence[int]) -> np.ndarray:
        return self._collective(_CALL.neighbor_alltoallv, sendbuf, sendcounts,
                                recvcounts)

    @property
    def topology(self) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
        """This rank's ``(sources, destinations)`` on a dist-graph communicator."""
        if self.state.topology is None:
            return None
        return self.state.topology.get(self._rank)

    def _neighbor_peers(self) -> tuple[int, ...]:
        """Union of this rank's topology sources and destinations (local ranks)."""
        topo = self.topology
        if topo is None:
            return ()
        return tuple(sorted(set(topo[0]) | set(topo[1])))

    # -- communicator management -------------------------------------------------

    def dup(self) -> "RawComm":
        """Duplicate the communicator (collective)."""
        self._count("comm_dup")
        self._check_usable()
        with self._span("comm_dup", peers="all"):
            seq = self._mgmt_seq
            self._mgmt_seq += 1
            new_id = (self.comm_id, "dup", seq)
            state = self.machine.get_or_create_comm(new_id, self.state.members)
            # dup is collective; synchronize like real MPI
            self._coll_algo("barrier").fn(self)
        return RawComm(self.machine, state, self.world_rank)

    def split(self, color: Optional[int], key: Optional[int] = None
              ) -> Optional["RawComm"]:
        """Split into sub-communicators by ``color``, ordered by ``key``.

        Returns ``None`` for ranks passing ``color=None`` (``MPI_UNDEFINED``).
        """
        self._count("comm_split")
        self._check_usable()
        with self._span("comm_split", peers="all"):
            seq = self._mgmt_seq
            self._mgmt_seq += 1
            entry = (color, key if key is not None else self._rank, self._rank)
            entries = self._coll_algo("allgather", (entry,)).fn(self, entry)
            if color is None:
                return None
            group = sorted((k, r) for (c, k, r) in entries if c == color)
            members = [self.state.members[r] for _, r in group]
            new_id = (self.comm_id, "split", seq, color)
            state = self.machine.get_or_create_comm(new_id, members)
        return RawComm(self.machine, state, self.world_rank)

    def dist_graph_create_adjacent(
        self, sources: Sequence[int], destinations: Sequence[int]
    ) -> "RawComm":
        """Create a neighborhood-topology communicator (``MPI_Dist_graph_create_adjacent``)."""
        self._count("dist_graph_create_adjacent")
        self._check_usable()
        with self._span("dist_graph_create_adjacent", peers="all"):
            seq = self._mgmt_seq
            self._mgmt_seq += 1
            new_id = (self.comm_id, "graph", seq)
            state = self.machine.get_or_create_comm(new_id, self.state.members,
                                                    topology={})
            state.topology[self._rank] = (tuple(sources), tuple(destinations))
            # Graph creation is collective and costs at least a barrier; real
            # implementations additionally build routing tables (Θ(α·log p)).
            self._coll_algo("barrier").fn(self)
        return RawComm(self.machine, state, self.world_rank)

    # -- one-sided communication ---------------------------------------------------

    def win_create(self, local: np.ndarray) -> "RawWindow":
        """Collectively create an RMA window over ``local`` (``MPI_Win_create``)."""
        from repro.mpi.rma import RawWindow

        self.machine.require("rma", "RMA windows (win_create)")
        self._count("win_create")
        self._check_usable()
        seq = self._mgmt_seq
        self._mgmt_seq += 1
        with self._span("win_create", peers="all"):
            return RawWindow(self, local, (self.comm_id, "win", seq))

    # -- failure handling (substrate for the ULFM plugin) -------------------------

    def kill_self(self) -> None:
        """Simulate this process dying (failure injection)."""
        from repro.mpi.errors import ProcessKilled

        self.machine.require("failures", "failure injection (kill_self)")
        raise ProcessKilled(self.world_rank)

    def revoke(self) -> None:
        """ULFM ``MPI_Comm_revoke``: mark the communicator unusable everywhere."""
        self.machine.require("ulfm", "ULFM revocation (comm_revoke)")
        self._count("comm_revoke")
        with self._span("comm_revoke", peers="all"):
            self.state.revoke()

    @property
    def is_revoked(self) -> bool:
        return self.state.waits.revoked

    def failed_ranks(self) -> tuple[int, ...]:
        """Communicator-local ranks of members known to have failed."""
        failed = self.machine.failed
        return tuple(
            i for i, w in enumerate(self.state.members) if w in failed
        )

    def shrink(self, generation: Hashable = 0) -> "RawComm":
        """ULFM ``MPI_Comm_shrink``: agree on survivors, build a new communicator."""
        self.machine.require("ulfm", "ULFM shrink (comm_shrink)")
        self._count("comm_shrink")
        with self._span("comm_shrink", peers="all"):
            alive, _ = self.machine.rendezvous(self.state, generation,
                                               self.world_rank)
            new_id = (self.comm_id, "shrink", generation, alive)
            state = self.machine.get_or_create_comm(new_id, alive)
        return RawComm(self.machine, state, self.world_rank)

    def agree(self, flag: bool, generation: Hashable = 0) -> bool:
        """ULFM ``MPI_Comm_agree`` (restricted to alive members): logical AND."""
        self.machine.require("ulfm", "ULFM agreement (comm_agree)")
        self._count("comm_agree")
        with self._span("comm_agree", peers="all"):
            return self.machine.rendezvous(
                self.state, ("agree", generation), self.world_rank, flag,
                "agree")[1]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RawComm(id={self.comm_id!r}, rank={self._rank}/{self.size})"
