"""Virtual-time communication cost model.

The paper evaluates on SuperMUC-NG (OmniPath, 100 Gbit/s).  We cannot run on
that machine, so the runtime threads a LogGP-style α-β cost model through
every message: per-rank *virtual clocks* advance as operations execute, and
benchmark "running time" is the maximum clock over all ranks.  The *shape* of
the paper's results (who wins, where crossovers fall) emerges from algorithm
structure × this model rather than from hand-written formulas.

Model
-----
- A point-to-point message of ``n`` bytes sent at sender-clock ``t`` becomes
  available to the receiver at ``t + alpha + n * beta``.
- The sending/receiving CPU is busy for ``overhead`` seconds per call.
- Operations on derived datatypes with holes (the ``MPI_Alltoallw`` path used
  internally by MPL) additionally pay ``pack_beta`` per byte and
  ``dtype_alpha`` per peer, reproducing the documented overhead of
  alltoallw-based variable-size collectives.
- Local computation is charged explicitly by applications through
  :meth:`Clock.compute`.

Defaults approximate the paper's testbed: ~2 µs MPI latency and 100 Gbit/s
(≈ 8e-11 s/byte) bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CostModel:
    """α-β communication cost model with derived-datatype penalties.

    Attributes
    ----------
    alpha:
        Per-message latency in seconds.
    beta:
        Per-byte transfer time in seconds.
    overhead:
        CPU overhead per communication call (LogP's *o*), in seconds.
    pack_beta:
        Extra per-byte cost for pack/unpack of non-contiguous derived
        datatypes (alltoallw path).
    dtype_alpha:
        Extra per-peer setup cost for alltoallw-style calls, paid even for
        zero-byte blocks (real alltoallw cannot skip peers).
    ser_beta:
        Per-byte CPU cost of (de)serialization, charged as compute time by
        the bindings when serialization is explicitly enabled (§III-D3/D4).
    """

    alpha: float = 2.0e-6
    beta: float = 8.0e-11
    overhead: float = 2.0e-7
    pack_beta: float = 2.0e-9
    dtype_alpha: float = 1.0e-6
    ser_beta: float = 1.0e-9

    def transfer_time(self, nbytes: int) -> float:
        """Time for a single message of ``nbytes`` to cross the wire."""
        return self.alpha + nbytes * self.beta

    def packed_transfer_time(self, nbytes: int) -> float:
        """Transfer time along the derived-datatype (alltoallw) path."""
        return self.alpha + self.dtype_alpha + nbytes * (self.beta + self.pack_beta)


#: Cost model in which communication and computation are free.  Used by
#: correctness tests that do not care about virtual time.
FREE = CostModel(
    alpha=0.0, beta=0.0, overhead=0.0, pack_beta=0.0, dtype_alpha=0.0, ser_beta=0.0
)


class Clock:
    """Per-rank virtual clock.

    A clock is only ever *written* by its owning rank thread; other threads
    read snapshots of it through message envelopes, so no locking is needed.
    """

    __slots__ = ("now", "model", "comm_seconds", "compute_seconds")

    def __init__(self, model: CostModel):
        self.now: float = 0.0
        self.model = model
        #: accumulated time attributed to communication (for breakdowns)
        self.comm_seconds: float = 0.0
        #: accumulated time attributed to local computation
        self.compute_seconds: float = 0.0

    def compute(self, seconds: float) -> None:
        """Charge ``seconds`` of local computation."""
        if seconds < 0:
            raise ValueError("compute time must be non-negative")
        self.now += seconds
        self.compute_seconds += seconds

    def charge_overhead(self) -> None:
        """Charge the per-call CPU overhead of a communication operation."""
        self.now += self.model.overhead
        self.comm_seconds += self.model.overhead

    def wait_until(self, t: float) -> None:
        """Advance the clock to at least ``t`` (idle/blocked time counts as comm)."""
        if t > self.now:
            self.comm_seconds += t - self.now
            self.now = t
