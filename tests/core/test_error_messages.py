"""Golden tests for the parameter-contract diagnostics.

The four contract-error classes of :mod:`repro.core.errors` word the
messages, and :func:`repro.core.plans.contract_errors` is the one check that
raises them: ``compile_plan`` raises its first error, reprolint reports every
one.  These tests pin the strings and that both halves report the same
errors.
"""

import pytest

from repro.core import (
    DuplicateParameterError,
    IgnoredParameterError,
    MissingParameterError,
    UnsupportedParameterError,
)
from repro.core.communicator import SPECS
from repro.core.plans import compile_plan, contract_errors
from repro.core.named_params import (
    destination,
    recv_counts_out,
    root,
    send_buf,
    send_count,
    send_recv_buf,
    tag,
)

from repro.analysis import lint_source


class TestGoldenMessages:
    """The classes' exact renderings."""

    def test_missing(self):
        assert str(MissingParameterError("gather", "send_buf",
                                         ("send_buf",))) == (
            "gather() is missing the required parameter 'send_buf'. "
            "Required parameters: send_buf."
        )

    def test_unsupported_sorts_accepted(self):
        assert str(UnsupportedParameterError(
                "bcast", "destination", ("send_recv_buf", "root"), 0)) == (
            "bcast() does not accept the parameter 'destination'. "
            "Accepted parameters: root, send_recv_buf."
        )

    def test_duplicate_single(self):
        assert str(DuplicateParameterError("allgatherv", ("send_buf",))) == (
            "allgatherv() received the parameter 'send_buf' more than once."
        )

    def test_duplicate_many(self):
        assert str(DuplicateParameterError("allgatherv",
                                           ("send_buf", "root"))) == (
            "allgatherv() received the parameters 'send_buf', 'root' "
            "more than once."
        )

    def test_ignored_with_accepted_list(self):
        err = IgnoredParameterError(
            "allgather", "send_buf", "in-place via send_recv_buf",
            ("send_recv_buf", "send_buf"),
        )
        assert str(err) == (
            "allgather(): parameter 'send_buf' would be ignored "
            "(in-place via send_recv_buf); remove it or use the "
            "non-in-place variant. "
            "Accepted parameters: send_buf, send_recv_buf."
        )


def _args(*params):
    return [p.token for p in params]


class TestRuntimeUsesTable:
    """The exception classes carry what they name, and the shared check
    constructs them from the operation's contract."""

    def test_missing_parameter_error(self):
        err = MissingParameterError("gather", "send_buf", ("send_buf",))
        assert (err.op, err.key) == ("gather", "send_buf")
        [found] = contract_errors(SPECS["gather"], _args(root(0)))
        assert type(found) is MissingParameterError
        assert str(found) == str(err)

    def test_unsupported_parameter_error(self):
        err = UnsupportedParameterError("barrier", "send_buf", (), 1)
        assert (err.op, err.key, err.position) == ("barrier", "send_buf", 1)
        assert str(err) == ("barrier() does not accept the parameter "
                            "'send_buf'. Accepted parameters: .")
        [found] = contract_errors(SPECS["barrier"], _args(send_buf([1])))
        assert str(found) == str(err) and found.position == 0

    def test_duplicate_parameter_error_accepts_one_or_many(self):
        single = DuplicateParameterError("bcast", "root")
        assert single.keys == ("root",)
        assert str(single) == ("bcast() received the parameter 'root' more "
                               "than once.")
        many = DuplicateParameterError("bcast", ("root", "send_recv_buf"))
        assert many.keys == ("root", "send_recv_buf")
        assert str(many) == ("bcast() received the parameters 'root', "
                             "'send_recv_buf' more than once.")

    def test_ignored_parameter_error(self):
        err = IgnoredParameterError("allgather", "send_count", "in-place",
                                    ("send_recv_buf",))
        assert (err.op, err.key) == ("allgather", "send_count")
        assert str(err) == (
            "allgather(): parameter 'send_count' would be ignored (in-place); "
            "remove it or use the non-in-place variant. "
            "Accepted parameters: send_recv_buf.")
        assert str(IgnoredParameterError("allgather", "send_count",
                                         "in-place")).endswith("variant.")

    def test_compile_plan_collects_every_duplicate(self):
        spec = SPECS["allgatherv"]
        with pytest.raises(DuplicateParameterError) as exc:
            compile_plan(spec, (send_buf([1]), send_buf([2]),
                                recv_counts_out(), recv_counts_out()))
        assert exc.value.keys == ("send_buf", "recv_counts")
        assert "'send_buf', 'recv_counts' more than once" in str(exc.value)

    def test_compile_plan_ignored_lists_accepted(self):
        spec = SPECS["allgather"]
        with pytest.raises(IgnoredParameterError) as exc:
            compile_plan(spec, (send_recv_buf([1, 2]), send_count(1)))
        assert "Accepted parameters:" in str(exc.value)


class TestStaticMatchesRuntime:
    """reprolint renders the identical strings for the same defects."""

    @staticmethod
    def _messages(source, code):
        return [f.message for f in lint_source(source) if f.code == code]

    @staticmethod
    def _raised(spec, *params):
        with pytest.raises(Exception) as exc:
            compile_plan(spec, params)
        return exc.value

    def test_missing(self):
        src = "def main(comm):\n    comm.gather(root(0))\n"
        assert self._messages(src, "RPL001") == [
            "gather() is missing the required parameter 'send_buf'. "
            "Required parameters: send_buf."
        ]
        assert self._messages(src, "RPL001") == [
            str(self._raised(SPECS["gather"], root(0)))]

    def test_unsupported(self):
        src = ("def main(comm):\n"
               "    comm.barrier(send_buf([1]))\n")
        assert self._messages(src, "RPL002") == [
            str(self._raised(SPECS["barrier"], send_buf([1])))
        ]

    def test_duplicate(self):
        src = ("def main(comm):\n"
               "    comm.allgatherv(send_buf([1]), send_buf([2]))\n")
        assert self._messages(src, "RPL003") == [
            "allgatherv() received the parameter 'send_buf' more than once."
        ]
        assert self._messages(src, "RPL003") == [
            str(self._raised(SPECS["allgatherv"], send_buf([1]),
                             send_buf([2])))]

    def test_ignored(self):
        src = ("def main(comm):\n"
               "    comm.allgather(send_recv_buf([0]), send_count(1))\n")
        runtime = self._raised(SPECS["allgather"], send_recv_buf([0]),
                               send_count(1))
        assert isinstance(runtime, IgnoredParameterError)
        assert self._messages(src, "RPL004") == [str(runtime)]

    def test_two_unsupported_and_a_duplicate_report_every_error(self):
        """Each error of the shared check is one finding, an unsupported
        parameter anchored at its argument; the first error is the one
        compile_plan raises."""
        params = (destination(1), send_buf([1]), tag(2), send_buf([2]))
        errors = contract_errors(SPECS["allgatherv"], _args(*params))
        assert [type(e) for e in errors] == [
            UnsupportedParameterError, UnsupportedParameterError,
            DuplicateParameterError]
        src = ("comm.allgatherv(destination(1), send_buf([1]), tag(2), "
               "send_buf([2]))\n")
        findings = lint_source(src, spmd=False)
        codes = {UnsupportedParameterError: "RPL002",
                 DuplicateParameterError: "RPL003"}
        assert sorted((f.code, f.message) for f in findings) == sorted(
            (codes[type(e)], str(e)) for e in errors)
        assert [f.col for f in findings if f.code == "RPL002"] == [
            src.index("destination"), src.index("tag")]
        raised = self._raised(SPECS["allgatherv"], *params)
        assert type(raised) is UnsupportedParameterError
        assert str(raised) == str(errors[0])
