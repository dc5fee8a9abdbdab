"""Schedule generators run without a communicator (``corun``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mpi import SUM, algorithms, user_op
from repro.mpi.algorithms import SINGLETON
from repro.mpi.ir import values_equal
from tests.conftest import runp
from tests.oracles import corun

_NO_IDENTITY = user_op(lambda a, b: a + b, commutative=True, name="plus")
_A = np.arange(4)

#: per collective: argument tuples the p = 1 fast path accepts, then ones it
#: must reject (bad root, bad counts)
CASES = {
    "barrier": ([()], []),
    "bcast": ([("x", 0)], [("x", 1)]),
    "gather": ([(3, 0)], [(3, -1)]),
    "gatherv": ([(_A, [4], 0), (_A, [9], 0)],
                [(_A, None, 0), (_A, [4, 4], 0), (_A, [3], 0), (_A, [4], 1)]),
    "scatter": ([([7], 0)], [(None, 0), ([1, 2], 0), ([7], 2)]),
    "scatterv": ([(_A, [3], 0)],
                 [(None, [3], 0), (_A, None, 0), (_A, [2, 2], 0),
                  (_A, [5], 0), (_A, [3], 1)]),
    "allgather": ([(5,)], []),
    "allgatherv": ([(_A, [4])], [(_A, [4, 4]), (_A, [3])]),
    "alltoall": ([([5],)], [([1, 2],)]),
    "alltoallv": ([(_A, [3], [3]), (_A, [3], [1])],
                  [(_A, [2, 2], [4]), (_A, [4], [2, 2]), (_A, [5], [5])]),
    "alltoallw": ([([_A],)], [([_A, _A],)]),
    "reduce": ([(5, SUM, 0)], [(5, SUM, 1)]),
    "allreduce": ([(5, SUM)], []),
    "scan": ([(5, SUM)], []),
    "exscan": ([(5, SUM), (_A, SUM), (True, SUM), (5, _NO_IDENTITY)], []),
}


def test_cases_cover_every_singleton():
    assert set(CASES) == set(SINGLETON)


@pytest.mark.parametrize("op", sorted(CASES))
def test_singleton_fast_path_equals_the_default_schedule_at_p1(op):
    """``singleton.py`` restates each collective's validation and return
    convention for p = 1; the general path is the reference.  The default
    schedule run at p = 1 sends and receives nothing and returns (or raises)
    exactly what the fast path does."""
    good, bad = CASES[op]
    schedule = algorithms.default(op).schedule

    def main(comm):
        for args in good:
            steps, values = corun(schedule, 1, lambda r: args)
            assert steps == [[]], (op, args)
            assert values_equal(SINGLETON[op].fn(comm, *args), values[0]), (op, args)
        for args in bad:
            with pytest.raises(Exception) as general:
                corun(schedule, 1, lambda r: args)
            with pytest.raises(type(general.value)) as fast:
                SINGLETON[op].fn(comm, *args)
            assert str(fast.value) == str(general.value), (op, args)

    runp(main, 1)
