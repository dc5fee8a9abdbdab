"""Recovery engine over ULFM: epochs, buddy checkpoints, shrink-and-retry.

The :mod:`~repro.plugins.ulfm` plugin stops at *detection* — a failed peer
surfaces as :class:`~repro.plugins.ulfm.MPIFailureDetected` and the
application holds revoke/shrink/agree primitives.  This module closes the
loop the paper's §V-B sketches: a :class:`ResilientScope` runs application
*epochs* over a ULFM-extended communicator and, when a failure strikes,

1. **revokes** the communicator, so survivors blocked inside the epoch's
   collectives error out instead of deadlocking on peers that already left;
2. **agrees** (fault-tolerant AND) on whether the epoch completed cleanly —
   a rank counts as healthy only if it finished the epoch *and* replicated
   its new state without seeing a failure;
3. **shrinks** to the survivors and **restores** lost state from in-memory
   *buddy checkpoints*: at every committed epoch each rank's state shards are
   replicated to its ring successor over point-to-point, so when rank ``w``
   dies its successor still holds ``w``'s last committed shards and adopts
   them (rebalancing the data onto the survivors);
4. **retries** the epoch on the shrunk communicator, within an attempt
   budget.  Nothing sleeps between attempts: shrink and agree are
   rendezvous points already, and each wait is bounded by the machine's
   deadline.

State is a list of ``(key, payload)`` *shards* per rank.  The epoch function
receives a deep copy of the committed shards (failed attempts can never
corrupt checkpointed state) and returns the rank's new shard list; adopted
shards simply extend the list, so an epoch function written over "my shards"
is automatically failure-oblivious.  Commitment is agreement-gated: a rank
promotes its buddy's replica exactly when the epoch-wide agreement says
everyone replicated successfully, which keeps the replica store globally
consistent even when a rank dies immediately after the agreement.

Data-loss limits are those of any buddy scheme: losing a rank *and* its ring
successor within one epoch (or a rank holding not-yet-recommitted adopted
shards) is unrecoverable and raises :class:`CheckpointLost` — a
:class:`RecoveryFailed` subclass, as is running out of attempts.
Recovery *disabled* is simply not using this module: the same fault then
propagates as plain :class:`~repro.plugins.ulfm.MPIFailureDetected`.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Hashable, Optional

from repro.core.errors import KampingError
from repro.plugins.ulfm import MPIFailureDetected

#: fixed user tag of the buddy-checkpoint replication messages (user tags
#: are validated ``< 2**20``; collective protocol tags are negative, so no
#: internal traffic can ever match this)
CKPT_TAG = 0xC4E7

Shards = list  # list[tuple[Hashable, Any]]
EpochFn = Callable[[Any, Shards, int], Optional[Shards]]


class RecoveryFailed(KampingError):
    """Recovery gave up: the attempt budget ran out."""


class CheckpointLost(RecoveryFailed):
    """Unrecoverable data loss: a rank and its buddy replica are both gone."""


class ResilientScope:
    """Epoch-structured resilient execution over a ULFM communicator.

    ``comm`` must be a ULFM-extended communicator (``extend(Communicator,
    ULFM)`` or a subclass); ``shards`` is this rank's initial state as a
    list of ``(key, payload)`` pairs.  Construction is collective: the
    initial shards are immediately replicated and committed (a genesis
    epoch), so even a rank that dies in the very first application epoch
    loses nothing.

    :meth:`run` executes one epoch function under the recovery loop; the
    committed state and the (possibly shrunk) communicator are available as
    :attr:`shards` and :attr:`comm` afterwards.
    """

    def __init__(self, comm, shards: Shards, *, label: str = "resilient",
                 max_attempts: int = 9):
        if not hasattr(comm, "agree"):
            raise KampingError(
                "ResilientScope needs a ULFM-extended communicator "
                "(extend(Communicator, ULFM))"
            )
        if max_attempts < 1:
            raise KampingError(
                f"max_attempts must be >= 1 (the first try counts as an "
                f"attempt), got {max_attempts}"
            )
        self.comm = comm
        self.shards: Shards = list(shards)
        self.label = label
        #: attempt budget per epoch, the first try included
        self.max_attempts = max_attempts
        #: number of committed epochs (the genesis commit is epoch 0, so
        #: application epochs start at 1)
        self.committed = 0
        #: world ranks shrunk away across the scope's lifetime
        self.recovered_from: list[int] = []
        self._store: Optional[Shards] = None
        self._store_owner: Optional[int] = None
        self._ring: tuple[int, ...] = tuple(comm.raw.state.members)
        self._failed_since_commit: set[int] = set()
        self._adoptions_since_commit: dict[int, set[int]] = {}
        # genesis: replicate the initial shards so they survive a first-epoch
        # death; an identity epoch reuses the whole retry machinery
        self.run(lambda _comm, work, _epoch: work)

    @property
    def world_rank(self) -> int:
        return self.comm.raw.world_rank

    # -- the epoch loop ----------------------------------------------------

    def run_stateless(self, body: Callable[[Any], Any]) -> Shards:
        """Run ``body(comm)`` as one epoch that cannot change the shards (it
        is handed none).  While the buddy replica is current — judged by
        agreed-on facts only, so every rank decides alike — the epoch runs on
        the committed shards with no copy and no buddy transfer; the first
        attempt after a recovery replicates as :meth:`run` does."""
        def epoch(comm, _shards, _epoch):
            body(comm)
        return self._run(epoch, stateless=True)

    def run(self, epoch_fn: EpochFn) -> Shards:
        """Run one epoch with recovery; returns the committed shard list.

        ``epoch_fn(comm, shards, epoch)`` receives the current communicator,
        a deep copy of this rank's committed shards, and the epoch index; it
        returns the rank's new shards (or ``None`` to commit ``shards`` as
        mutated in place).  It may raise — or its peers may observe —
        :class:`MPIFailureDetected` at any point; any other exception
        propagates unhandled.

        The epoch is retried until it commits or the attempt budget
        ``max_attempts`` runs out, which raises :class:`RecoveryFailed`.
        """
        return self._run(epoch_fn, stateless=False)

    def _run(self, epoch_fn: EpochFn, stateless: bool) -> Shards:
        attempts = 0
        while True:
            comm = self.comm
            token = (self.label, self.committed, attempts)
            result: Optional[Shards] = None
            incoming: Optional[tuple[int, Shards]] = None
            # the replica is current, by facts every rank agrees on
            skip = (stateless and self._store is not None
                    and not self._failed_since_commit
                    and not self._adoptions_since_commit
                    and self._ring == comm.raw.state.members)
            try:
                work = self.shards if skip else copy.deepcopy(self.shards)
                result = epoch_fn(comm, work, self.committed)
                if result is None:
                    result = work
                if not skip:
                    incoming = self._replicate(comm, result, token)
                healthy = not comm.failed_ranks()
            except MPIFailureDetected:
                self._revoke_quietly(comm)
                healthy = False
            if comm.agree(healthy, generation=("resil-agree", token)):
                self._commit(comm, result, incoming)
                return self.shards
            attempts += 1
            if attempts >= self.max_attempts:
                raise RecoveryFailed(
                    f"scope {self.label!r}: epoch {self.committed} still "
                    f"failing after {attempts} attempt(s) "
                    f"(max_attempts={self.max_attempts})")
            self._recover()

    # -- buddy checkpoint replication --------------------------------------

    def _replicate(self, comm, result: Shards, token) -> tuple[int, Shards]:
        """Send my new shards to my ring successor, receive my predecessor's.

        Returns ``(owner world rank, shards)`` of the received replica.  The
        transfer deposits a deep snapshot (buffered-send semantics of the
        runtime), so the replica is independent storage.  Each attempt runs
        on a fresh communicator after a shrink, so a stale replica from a
        failed attempt can never cross-match; the token check is defense in
        depth.
        """
        raw = comm.raw
        if raw.size == 1:
            return raw.world_rank, copy.deepcopy(result)
        succ = (raw.rank + 1) % raw.size
        pred = (raw.rank - 1) % raw.size

        def xfer():
            raw.send((token, raw.world_rank, result), succ, CKPT_TAG)
            while True:
                payload, _ = raw.recv(pred, CKPT_TAG)
                if payload[0] == token:
                    return payload[1], payload[2]

        return comm._guard(xfer)

    def _commit(self, comm, result: Shards,
                incoming: Optional[tuple[int, Shards]]) -> None:
        self.shards = result
        if incoming is not None:
            self._store_owner, self._store = incoming
        self._ring = tuple(comm.raw.state.members)
        self._failed_since_commit = set()
        self._adoptions_since_commit = {}
        self.committed += 1

    # -- failure recovery --------------------------------------------------

    def _revoke_quietly(self, comm) -> None:
        try:
            if not comm.is_revoked:
                comm.revoke()
        except MPIFailureDetected:
            pass

    def _recover(self) -> None:
        """Shrink to the survivors and adopt the dead ranks' replicas.

        The adoption plan is computed from agreed-on inputs only — the ring
        of the last commit and the shrunk membership — so every survivor
        derives the identical plan without extra communication.
        """
        comm = self.comm
        self._revoke_quietly(comm)
        new_comm = comm.shrink()
        alive = set(new_comm.raw.state.members)
        ring = self._ring
        dead_now = [w for w in ring
                    if w not in alive and w not in self._failed_since_commit]
        # Viability is decided collectively: the "holder has no replica"
        # condition is only observable *on the holder*, and a lone rank
        # raising CheckpointLost while its peers retry the epoch would
        # deadlock the survivors.  Every rank scores the plan locally, then
        # the shrunk communicator agrees before anyone adopts or gives up.
        reason = None
        for f in dead_now:
            lost = self._adoptions_since_commit.get(f)
            holder = ring[(ring.index(f) + 1) % len(ring)]
            if lost:
                reason = (f"rank {f} died holding the only copy of adopted "
                          f"state from ranks {sorted(lost)} (no commit in "
                          f"between)")
            elif holder == f or holder not in alive:
                reason = (f"rank {f} and its checkpoint buddy {holder} both "
                          f"failed since the last commit")
            elif (holder == self.world_rank
                  and (self._store_owner != f or self._store is None)):
                reason = (f"rank {self.world_rank} should hold the replica "
                          f"of rank {f} but holds {self._store_owner!r}")
            if reason:
                break
        viable = new_comm.agree(
            reason is None,
            generation=("resil-plan", self.label, self.committed,
                        tuple(dead_now)),
        )
        if not viable:
            raise CheckpointLost(
                reason or (f"scope {self.label!r}: a survivor lost the "
                           f"replica of a dead rank in {sorted(dead_now)}")
            )
        for f in dead_now:
            holder = ring[(ring.index(f) + 1) % len(ring)]
            if holder == self.world_rank:
                self.shards = list(self.shards) + copy.deepcopy(self._store)
            self._adoptions_since_commit.setdefault(holder, set()).add(f)
            self._failed_since_commit.add(f)
            self.recovered_from.append(f)
        self.comm = new_comm


def run_resilient(comm, epoch_fn: EpochFn, shards: Shards, *,
                  epochs: int = 1, label: str = "resilient",
                  max_attempts: int = 9) -> ResilientScope:
    """Run ``epochs`` epochs of ``epoch_fn`` under a :class:`ResilientScope`.

    Convenience driver for the common shape::

        scope = run_resilient(comm, one_round, [(comm.rank, my_data)],
                              epochs=rounds)
        survivors_result = scope.shards   # on scope.comm

    Returns the scope; the committed shards, the surviving communicator, and
    the recovery history are its attributes.  ``max_attempts`` is each
    epoch's attempt budget (see :class:`ResilientScope`).
    """
    scope = ResilientScope(comm, shards, label=label,
                           max_attempts=max_attempts)
    for _ in range(epochs):
        scope.run(epoch_fn)
    return scope
