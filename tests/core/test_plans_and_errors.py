"""Call-plan compilation: validation errors, caching, and the result protocol."""

import numpy as np
import pytest

from repro.core import (
    Communicator,
    DuplicateParameterError,
    IgnoredParameterError,
    MissingParameterError,
    MPIResult,
    PlanCache,
    UnsupportedParameterError,
    UsageError,
    as_serialized,
    destination,
    encode_send,
    op,
    recv_counts,
    recv_counts_out,
    recv_displs_out,
    root,
    send_buf,
    send_count,
    send_counts,
    send_recv_buf,
    tag,
)
from repro.core.communicator import SPECS
from repro.core.plans import compile_plan
from repro.mpi import SUM, CollectiveEngine, call_delta, snapshot
from tests.conftest import runk, runp


class TestValidation:
    def test_missing_required_parameter_named_in_message(self):
        def main(comm):
            comm.allgatherv()

        with pytest.raises(RuntimeError, match="missing the required parameter 'send_buf'"):
            runk(main, 1)

    def test_unsupported_parameter_lists_accepted(self):
        def main(comm):
            comm.barrier_ = None
            comm.allgatherv(send_buf([1]), destination(0))

        with pytest.raises(RuntimeError, match="does not accept the parameter 'destination'"):
            runk(main, 1)

    def test_duplicate_parameter(self):
        def main(comm):
            comm.allgatherv(send_buf([1]), send_buf([2]))

        with pytest.raises(RuntimeError, match="more than once"):
            runk(main, 1)

    def test_inplace_conflict_is_ignored_parameter_error(self):
        """§III-G: arguments the in-place call would ignore become errors."""
        def main(comm):
            comm.allgather(send_recv_buf(np.zeros(comm.size)),
                           send_buf(np.zeros(1)))

        with pytest.raises(RuntimeError, match="would be ignored"):
            runk(main, 2)

    def test_inplace_send_count_conflict(self):
        def main(comm):
            comm.allgather(send_recv_buf(np.zeros(comm.size)), send_count(1))

        with pytest.raises(RuntimeError, match="would be ignored"):
            runk(main, 2)

    def test_non_parameter_argument_rejected(self):
        def main(comm):
            comm.allgatherv([1, 2, 3])

        with pytest.raises(RuntimeError, match="named parameters"):
            runk(main, 1)

    def test_direct_compile_plan_errors(self):
        spec = SPECS["allgatherv"]
        with pytest.raises(MissingParameterError):
            compile_plan(spec, ())
        with pytest.raises(DuplicateParameterError):
            compile_plan(spec, (send_buf([1]), send_buf([1])))
        with pytest.raises(UnsupportedParameterError):
            compile_plan(spec, (send_buf([1]), tag(3)))


class TestRawUsageErrorsAreTranslated:
    """§III-G: a raw usage error leaves the bindings as a ``UsageError`` —
    a ``KampingError`` like every other — with the raw message unchanged."""

    CASES = {
        "destination": (lambda comm, v: comm.send(send_buf(v), destination(5)),
                        "peer rank 5 out of range for communicator of size 2"),
        "root": (lambda comm, v: comm.bcast(send_recv_buf(v), root(7)),
                 "root 7 out of range for size 2"),
        "tag": (lambda comm, v: comm.send(send_buf(v), destination(0),
                                          tag(-5)),
                "user tags must be in [0, 1048576) or ANY_TAG, got -5"),
        "allgatherv": (lambda comm, v: comm.allgatherv(send_buf(v),
                                                       recv_counts([4])),
                       "recvcounts must have length 2"),
        "gatherv": (lambda comm, v: comm.gatherv(send_buf(v),
                                                 recv_counts([4])),
                    "recvcounts must have length 2"),
        "alltoallv": (lambda comm, v: comm.alltoallv(
            send_buf(v), send_counts([2, 2]), recv_counts([2])),
            "sendcounts/recvcounts must have length 2"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_raw_usage_error_becomes_usage_error(self, case):
        from repro.core import KampingError
        from repro.mpi import RawUsageError

        call, message = self.CASES[case]

        def main(comm):
            if case == "gatherv" and comm.rank != 0:
                return message  # only the root has counts to be wrong about
            with pytest.raises(UsageError) as caught:
                call(comm, np.arange(4))
            assert isinstance(caught.value, KampingError)
            assert isinstance(caught.value.__cause__, RawUsageError)
            return str(caught.value)

        assert runk(main, 2).values == [message] * 2


class TestPlanCache:
    def test_same_signature_compiles_once(self):
        cache = PlanCache()

        def main(comm):
            c = Communicator(comm.raw, plan_cache=cache)
            for _ in range(10):
                c.allgatherv(send_buf(np.arange(comm.rank + 1)))
            return cache.compilations

        res = runk(main, 2)
        # one plan for allgatherv(send_buf) shared by all iterations; the
        # count-inference path adds its own allgather use of the raw layer only
        assert res.values[0] == 1

    def test_distinct_signatures_compile_separately(self):
        cache = PlanCache()

        def main(comm):
            c = Communicator(comm.raw, plan_cache=cache)
            c.allgatherv(send_buf(np.arange(2)))
            c.allgatherv(send_buf(np.arange(2)), recv_counts_out())
            c.allgatherv(send_buf(np.arange(2)), recv_counts_out(),
                         recv_displs_out())
            return cache.compilations

        assert runk(main, 1).values[0] == 3

    def test_disabled_cache_recompiles(self):
        cache = PlanCache(enabled=False)

        def main(comm):
            c = Communicator(comm.raw, plan_cache=cache)
            for _ in range(5):
                c.allgatherv(send_buf(np.arange(1)))
            return cache.compilations

        assert runk(main, 1).values[0] == 5

    def test_payload_values_do_not_affect_signature(self):
        cache = PlanCache()

        def main(comm):
            c = Communicator(comm.raw, plan_cache=cache)
            c.allgatherv(send_buf(np.arange(3)))
            c.allgatherv(send_buf(np.arange(1000)))
            return cache.compilations

        assert runk(main, 1).values[0] == 1


def _bind_mix(comm, rounds=100):
    """The four calls of bench_layers' bind_p1 workload."""
    v, c = np.arange(8, dtype=np.int64), [8]
    b = v.copy()
    for _ in range(rounds):
        comm.allgatherv(send_buf(v), recv_counts(c))
        comm.allreduce(send_buf(v), op(SUM))
        comm.bcast(send_recv_buf(b))
        comm.alltoallv(send_buf(v), send_counts(c))


class TestSpecialisation:
    """A plan is a closure specialised for one signature: it must be chosen
    by everything it was specialised on, and by nothing else."""

    def test_one_call_site_one_plan_per_container_kind(self):
        class Sub(np.ndarray):
            pass

        payloads = [np.arange(3), [1, 2, 3], 7, as_serialized({"a": 1}),
                    np.arange(3).view(Sub), []]
        cache = PlanCache()

        def main(comm):
            c = Communicator(comm.raw, plan_cache=cache)
            out = []
            for x in payloads:
                before = cache.compilations
                got = c.allreduce(send_buf(x), op(SUM))
                out.append((got, cache.compilations - before))
            return out

        results = runk(main, 1).values[0]
        # the ndarray subclass reuses the array plan, the empty list the
        # list plan: kind, not type or length, selects the encoder
        assert [compiled for _, compiled in results] == [1, 1, 1, 1, 0, 0]
        for x, (got, _) in zip(payloads, results):
            wire = encode_send(x)  # the generic encoder is the reference
            expected = wire.decode(wire.payload)
            assert type(got) is type(expected)
            assert np.array_equal(got, expected)

    #: every way to get a signature wrong, with the message pinned
    BAD_CALLS = {
        "duplicate": (
            lambda c: c.allgatherv(send_buf([1]), send_buf([2]),
                                   recv_counts([1]), recv_counts([1])),
            DuplicateParameterError,
            "allgatherv() received the parameters 'send_buf', 'recv_counts' "
            "more than once."),
        "missing": (
            lambda c: c.alltoallv(send_buf([1])),
            MissingParameterError,
            "alltoallv() is missing the required parameter 'send_counts'. "
            "Required parameters: send_buf, send_counts."),
        "unsupported": (
            lambda c: c.allgatherv(send_buf([1]), destination(0)),
            UnsupportedParameterError,
            "allgatherv() does not accept the parameter 'destination'. "
            "Accepted parameters: recv_buf, recv_counts, recv_displs, "
            "send_buf, send_count."),
        "ignored": (
            lambda c: c.allgather(send_recv_buf(np.zeros(1)), send_count(1)),
            IgnoredParameterError,
            "allgather(): parameter 'send_count' would be ignored (the "
            "in-place variant derives the count from the buffer); remove it "
            "or use the non-in-place variant. Accepted parameters: recv_buf, "
            "send_buf, send_count, send_recv_buf."),
        "positional": (
            lambda c: c.allgatherv([1, 2, 3]),
            UsageError,
            "allgatherv() arguments must be named parameters "
            "(send_buf(...), recv_counts_out(), ...); got list"),
        "nothing_to_send": (
            lambda c: c.allgather(),
            UsageError,
            "allgather requires send_buf (or send_recv_buf)"),
    }

    @pytest.mark.parametrize("case", sorted(BAD_CALLS))
    def test_bad_signature_raises_every_time_and_is_never_cached(self, case):
        call, error, message = self.BAD_CALLS[case]
        cache = PlanCache()

        def main(comm):
            c = Communicator(comm.raw, plan_cache=cache)
            raised = []
            for _ in range(3):
                try:
                    call(c)
                except UsageError as exc:
                    raised.append((type(exc), str(exc)))
            return raised

        assert runk(main, 1).values[0] == [(error, message)] * 3
        assert (cache.compilations, cache.hits, len(cache._cache)) == (0, 0, 0)

    def test_counters_are_exact_for_the_bind_mix(self):
        warm, off = PlanCache(), PlanCache(enabled=False)

        def main(comm):
            _bind_mix(Communicator(comm.raw, plan_cache=warm))
            _bind_mix(Communicator(comm.raw, plan_cache=off))

        runk(main, 1)
        assert (warm.compilations, warm.hits) == (4, 396)
        assert (off.compilations, off.hits) == (400, 0)

    def test_raw_calls_and_virtual_time_of_the_bind_mix(self):
        """Specialisation changes no raw call and no virtual time: both are
        pinned from the interpreted implementation it replaced."""
        def main(raw):
            before = snapshot(raw)
            _bind_mix(Communicator(raw, PlanCache()))
            return dict(call_delta(raw, before))

        res = runp(main, 1)
        assert res.values[0] == {"allgatherv": 100, "allreduce": 100,
                                 "bcast": 100, "alltoall": 100,
                                 "alltoallv": 100}
        assert res.times == [0.0]

    def test_raw_calls_and_virtual_time_of_the_collective_mix(self):
        """The p=4 mix of bench_layers' coll_thread_p4, pinned likewise."""
        def main(raw):
            comm = Communicator(raw, PlanCache())
            p, r = raw.size, raw.rank
            one = np.arange(1, dtype=np.int64) + r
            big = np.arange(8192, dtype=np.int64) + r
            bc = np.arange(8, dtype=np.int64)
            ag = np.arange(8, dtype=np.int64) + r
            a2a = np.arange(128 * p, dtype=np.int64) + r
            before = snapshot(raw)
            for _ in range(4):
                comm.allreduce(send_buf(one), op(SUM))
                comm.allreduce(send_buf(big), op(SUM))
                comm.bcast(send_recv_buf(bc))
                comm.allgatherv(send_buf(ag), recv_counts([8] * p))
                comm.alltoallv(send_buf(a2a), send_counts([128] * p))
            return dict(call_delta(raw, before))

        # virtual times are the default schedules': blind to REPRO_COLL_*
        res = runp(main, 4, engine=CollectiveEngine(env={}))
        assert res.values == [{"allreduce": 8, "bcast": 4, "allgatherv": 4,
                               "alltoall": 4, "alltoallv": 4}] * 4
        assert res.times == [0.0001790387200000005, 0.0001790387200000005,
                             0.0001810393600000005, 0.0001790387200000005]


class TestResultProtocol:
    def test_structured_binding_order(self):
        def main(comm):
            v = np.arange(comm.rank + 1, dtype=np.int64)
            result = comm.allgatherv(send_buf(v), recv_displs_out(),
                                     recv_counts_out())
            assert isinstance(result, MPIResult)
            assert result.keys() == ("recv_buf", "recv_displs", "recv_counts")
            buf, displs, counts = result
            return buf.tolist(), displs, counts

        buf, displs, counts = runk(main, 3).values[0]
        assert counts == [1, 2, 3] and displs == [0, 1, 3]

    def test_extract_methods_and_move_once(self):
        def main(comm):
            v = np.arange(1, dtype=np.int64)
            result = comm.allgatherv(send_buf(v), recv_counts_out())
            counts = result.extract_recv_counts()
            buf = result.extract_recv_buf()
            try:
                result.extract_recv_counts()
            except UsageError as exc:
                return counts, buf.tolist(), "already extracted" in str(exc)
            return None

        counts, buf, raised = runk(main, 2).values[0]
        assert counts == [1, 1] and buf == [0, 0] and raised

    def test_extract_unknown_field(self):
        def main(comm):
            result = comm.allgatherv(send_buf(np.arange(1)), recv_counts_out())
            try:
                result.extract_recv_displs()
            except UsageError as exc:
                return "no field" in str(exc)

        assert runk(main, 1).values[0]

    def test_iteration_after_extract_raises(self):
        def main(comm):
            result = comm.allgatherv(send_buf(np.arange(1)), recv_counts_out())
            result.extract_recv_buf()
            try:
                list(result)
            except UsageError:
                return True
            return False

        assert runk(main, 1).values[0]
