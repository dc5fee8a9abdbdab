"""Timing discipline shared by every workload.

One *batch* is a fixed number of operations on one path; a *round* is one
wrapped batch, one raw batch and one batch of the workload's *reference* — a
fixed piece of work that touches nothing of the program: a pure-Python loop,
or for the compute-bound sort a plain ``np.sort``.  Rounds cycle
through all six orders of the three (for two sides that would be ABBA) so
slow drift of the machine cancels in every ratio, an untimed barrier
precedes every batch, and the clock is ``time.perf_counter`` read on rank 0
*inside* the rank function.  Batch sizes are constants of the workload, so a
batch is the same work on every commit; only the number of rounds follows
the ``--seconds`` budget, and every reported timing is a median over
batches.

Why a reference: on a shared sandbox the same binary runs a third
slower for minutes at a time (README, "What is gated").  Wall times move
with the machine; a time divided by the reference time of the same round
moves with the program.
"""

from __future__ import annotations

import itertools
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Optional, Sequence

#: reference units per reference batch (about 4 ms here)
REFERENCE_UNITS = 100
#: iterations of the loop body that make one reference unit (about 40 us)
UNIT_ITERATIONS = 1000
_UNIT_RESULT = sum((i * i) & 7 for i in range(UNIT_ITERATIONS))


def interpreter_reference() -> float:
    """Seconds per unit of interpreter-bound work, over one reference batch."""
    t0 = perf_counter()
    for _ in range(REFERENCE_UNITS):
        acc = 0
        for i in range(UNIT_ITERATIONS):
            acc += (i * i) & 7
    elapsed = perf_counter() - t0
    if acc != _UNIT_RESULT:
        raise RuntimeError("the reference loop computed a wrong sum")
    return elapsed / REFERENCE_UNITS


@dataclass
class Side:
    """One path through the stack, as batch + check.

    ``run()`` executes ``ops`` operations and returns ``(seconds, out)``:
    the seconds it timed itself, and whatever ``check`` needs.  ``check(out)``
    runs outside the timed section and returns how many of the batch's
    operations produced a value different from the reference.
    """

    run: Callable[[], tuple[float, Any]]
    check: Callable[[Any], int]
    ops: int


@dataclass
class Rounds:
    """What the lead rank saw: per-round seconds of each batch, and the tally.

    Index ``i`` of the three lists belongs to round ``i``.
    """

    a_s: list[float] = field(default_factory=list)
    b_s: list[float] = field(default_factory=list)
    #: seconds per reference unit
    ref_s: list[float] = field(default_factory=list)
    a_ops: int = 0
    b_ops: int = 0
    attempted: int = 0
    failed: int = 0
    #: ``perf_counter`` when warm-up ended and the first timed batch began
    first_timed: float = 0.0

    def extend(self, later: "Rounds") -> None:
        """Pool a later launch's rounds into this one."""
        self.a_s += later.a_s
        self.b_s += later.b_s
        self.ref_s += later.ref_s
        self.attempted += later.attempted
        self.failed += later.failed


_ORDERS = list(itertools.permutations(("a", "b", "ref")))


def measure_rounds(a: Side, b: Side, seconds: float, *,
                   lead: bool = True,
                   agree: Optional[Callable[[int], int]] = None,
                   barrier: Optional[Callable[[], None]] = None,
                   reference: Callable[[], float] = interpreter_reference,
                   max_rounds: Optional[int] = None) -> Rounds:
    """Warm both sides up, then run rounds until ``seconds`` elapsed.

    Called by every rank of a run.  ``lead`` marks the rank whose clock
    decides when to stop and which alone runs ``reference`` (it returns
    seconds per unit; the others wait at the next barrier).  ``agree``
    spreads the decision to go on (an allreduce, so it also synchronises)
    and ``barrier`` is the untimed barrier before each batch; both default
    to no-ops for single-threaded callers.  ``max_rounds`` ends the run
    early, for a program whose memory grows with the work done.
    """
    out = Rounds(a_ops=a.ops, b_ops=b.ops)
    for side in (a, b):  # warm-up: plan caches, lazy imports, first touches
        out.failed += int(side.check(side.run()[1]))
        out.attempted += side.ops
    sides = {"a": (a, out.a_s), "b": (b, out.b_s)}
    out.first_timed = perf_counter()
    deadline = out.first_timed + seconds
    done = 0
    while True:
        go = int(lead and perf_counter() < deadline and done != max_rounds)
        if agree is not None:
            go = agree(go)
        if not go:
            return out
        for slot in _ORDERS[done % len(_ORDERS)]:
            if barrier is not None:
                barrier()
            if slot == "ref":
                if lead:
                    out.ref_s.append(reference())
                continue
            side, sink = sides[slot]
            elapsed, result = side.run()
            sink.append(elapsed)
            out.failed += int(side.check(result))
            out.attempted += side.ops
        done += 1


def measure_on_ranks(raw, a: Side, b: Side, seconds: float,
                     reference: Callable[[], float]) -> Rounds:
    """:func:`measure_rounds` wired to a raw communicator's collectives."""
    from repro.mpi import MAX

    if raw.size == 1:
        return measure_rounds(a, b, seconds, barrier=raw.barrier,
                              reference=reference)
    return measure_rounds(
        a, b, seconds, lead=raw.rank == 0, reference=reference,
        agree=lambda go: int(raw.allreduce(go, MAX)), barrier=raw.barrier)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` has them."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summary(values: Sequence[float], unit: str, scale: float = 1.0) -> dict:
    """A timing as the benchmark prints it: median, quartiles, n and unit."""
    q1, q2, q3 = quartiles([v * scale for v in values])
    return {"value": q2, "unit": unit, "n": len(values), "q1": q1, "q3": q3}


def scalar(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit, "n": 1}


def path_metrics(rounds: Rounds) -> dict[str, dict]:
    """Everything one run's rounds say about path ``a`` (and ``b``).

    Ratios are taken round by round — both times of a ratio come from the
    same few milliseconds — and then summarised by their median:

    ``a_b_ratio``    time per operation on ``a`` over time per operation on ``b``
    ``a_ref_ratio``  time per operation on ``a`` in reference units
    ``stall_ratio``  mean over median of ``a``'s batch times: 1 when batches
                     are alike, more when some stall (a median hides those)

    and, for information, the absolute ``op_us`` / ``b_op_us`` (median over
    batches), ``ops_per_s`` (operations over *summed* batch seconds) and
    ``ref_unit_us``.
    """
    if not rounds.a_s:
        raise RuntimeError("no timed round completed within the budget")
    per_a = [s / rounds.a_ops for s in rounds.a_s]
    per_b = [s / rounds.b_ops for s in rounds.b_s]
    return {
        "a_b_ratio": summary([x / y for x, y in zip(per_a, per_b)], "ratio"),
        "a_ref_ratio": summary([x / r for x, r in zip(per_a, rounds.ref_s)],
                               "ratio"),
        "stall_ratio": scalar(statistics.fmean(per_a)
                              / statistics.median(per_a), "ratio"),
        "op_us": summary(per_a, "us", 1e6),
        "b_op_us": summary(per_b, "us", 1e6),
        "ops_per_s": scalar(1.0 / statistics.fmean(per_a), "1/s"),
        "ref_unit_us": summary(rounds.ref_s, "us", 1e6),
    }
