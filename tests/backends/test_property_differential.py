"""Hypothesis differential testing: random p2p programs on both backends.

A generated program is a global list of sends ``(src, dst, tag, nbytes,
nest)`` — ``nest`` picks the container the array body travels in — executed
SPMD: every rank performs its sends (standard mode — buffered, so
any program is deadlock-free) and then receives everything addressed to it,
either by explicit ``(source, tag)`` in a deterministic order or entirely
through wildcards.  Results are compared element-wise between the process
backend and the thread reference; any divergence Hypothesis finds gets
seed-pinned below via ``@example`` so it reruns forever.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.mpi import run_mpi
from tests.backends.conftest import canon

pytestmark = pytest.mark.slow

#: a send instruction: endpoints are drawn in [0, 2] and folded mod p
_SEND = st.tuples(
    st.integers(0, 2),   # src
    st.integers(0, 2),   # dst
    st.integers(0, 5),   # tag
    st.integers(0, 48),  # payload length (bytes of the array body)
    st.integers(0, 3),   # nesting of the body (see _NESTS)
)

PROGRAMS = st.tuples(
    st.sampled_from((2, 3)),                       # p
    st.lists(_SEND, min_size=0, max_size=10),      # sends
    st.booleans(),                                 # receive via wildcards?
)


#: containers of arrays, as the collective schedules ship them: every
#: array inside must cross the pipe like a top-level one
_NESTS = (
    lambda body: body,
    lambda body: [body[: len(body) // 2], body[len(body) // 2:]],
    lambda body: {"strided": body[::2], "count": len(body),
                  "wide": body.astype(">u2")},
    lambda body: (len(body), [(0, body), (1, [body, body[:0]])]),
)


def _payload(src: int, dst: int, tag: int, i: int, size: int,
             nest: int) -> tuple:
    body = np.full(size, (src * 31 + tag * 7 + i) % 251, dtype=np.uint8)
    return (src, dst, tag, i, _NESTS[nest](body))


def _record(pl, status) -> tuple:
    return (status.source, status.tag, status.nbytes,
            pl[0], pl[1], pl[2], pl[3], repr(canon(pl[4])))


def _exchange(comm, sends, wildcard):
    p = comm.size
    sends = [(src % p, dst % p, tag, size, nest)
             for (src, dst, tag, size, nest) in sends]
    for i, (src, dst, tag, size, nest) in enumerate(sends):
        if src == comm.rank:
            comm.send(_payload(src, dst, tag, i, size, nest), dst, tag)
    got = []
    if wildcard:
        for _ in [s for s in sends if s[1] == comm.rank]:
            pl, status = comm.recv()
            got.append(_record(pl, status))
        got.sort()  # wildcard match order is timing-dependent by design
    else:
        for i, (src, dst, tag, size, nest) in enumerate(sends):
            if dst == comm.rank:
                pl, status = comm.recv(src, tag)
                got.append(_record(pl, status))
    return got


@given(PROGRAMS)
@example((2, [(0, 1, 0, 0, 0)], True))            # smallest wildcard program
@example((2, [(0, 1, 1, 8, 0), (0, 1, 0, 4, 0)], False))  # out-of-order tags
@example((3, [(0, 2, 0, 3, 0), (1, 2, 0, 3, 0), (2, 2, 0, 3, 0)],
          True))                                   # fan-in
@example((3, [(0, 0, 2, 16, 0)], False))          # self-send
@example((2, [(1, 0, 3, 48, 0)] * 4, False))      # non-overtaking burst
@example((2, [(0, 1, 0, 48, n) for n in range(4)], False))  # every nesting
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_send_recv_programs_agree(program):
    p, sends, wildcard = program
    ref = run_mpi(_exchange, p, args=(sends, wildcard), backend="thread",
                  deadline=30.0)
    got = run_mpi(_exchange, p, args=(sends, wildcard), backend="process",
                  deadline=30.0)
    assert canon(got.values) == canon(ref.values)
    assert got.counts == ref.counts
    if not wildcard:
        # explicit matching is fully deterministic: clocks agree bit-for-bit
        assert got.times == ref.times
