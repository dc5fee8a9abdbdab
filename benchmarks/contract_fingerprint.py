"""Everything the named-parameter contract says about small calls, as diffable
text.

Every wrapped method (the operations and their aliases, as
``repro.analysis.signatures.METHOD_SPECS`` lists them) is called with every
sequence of zero, one or two of the 23 factories — both orders and repeats
included — with the sample payloads below, and one line is printed per call::

    <call> => <what compile_plan does> || <what reprolint reports>

The first half is ``ok`` or the exception's class and message, a builder's
own errors included: the method runs on a plan table that compiles every call
and runs no plan.  The second half is every Layer-1 finding (code, column,
message) for the same call written as ``comm.<method>(...)``.  A change to the
contract check, the error messages or the linter's tables is
behaviour-preserving when two commits print the same::

    PYTHONPATH=src python -m benchmarks.contract_fingerprint > change.txt
    PYTHONPATH=<parent checkout>/src python \\
        benchmarks/contract_fingerprint.py > parent.txt
    diff parent.txt change.txt
"""

from __future__ import annotations

from itertools import chain, product
from types import SimpleNamespace

from repro.analysis import lint_source
from repro.analysis.signatures import FACTORY_PARAMS, METHOD_SPECS
from repro.core import named_params
from repro.core.communicator import Communicator
from repro.core.plans import PlanCache, compile_plan

#: one call of each factory, as source text
SAMPLES = {
    "send_buf": "send_buf([1, 2, 3, 4])",
    "send_buf_out": "send_buf_out([1, 2, 3, 4])",
    "recv_buf": "recv_buf([0, 0, 0, 0])",
    "send_recv_buf": "send_recv_buf([1, 2, 3, 4])",
    "send_counts": "send_counts([1, 1, 1, 1])",
    "send_counts_out": "send_counts_out()",
    "recv_counts": "recv_counts([1, 1, 1, 1])",
    "recv_counts_out": "recv_counts_out()",
    "send_displs": "send_displs([0, 1, 2, 3])",
    "send_displs_out": "send_displs_out()",
    "recv_displs": "recv_displs([0, 1, 2, 3])",
    "recv_displs_out": "recv_displs_out()",
    "send_count": "send_count(2)",
    "recv_count": "recv_count(2)",
    "recv_count_out": "recv_count_out()",
    "send_recv_count": "send_recv_count(2)",
    "op": "op(max)",
    "root": "root(0)",
    "destination": "destination(1)",
    "source": "source(0)",
    "tag": "tag(3)",
    "values_on_rank_0": "values_on_rank_0(0)",
    "status_out": "status_out()",
}


class _CompileOnly(PlanCache):
    """A plan table that compiles every call and runs none: the plan it
    hands back says ``ok``."""

    def lookup(self, spec, params):
        compile_plan(spec, params)
        return _OK


_OK = SimpleNamespace(run=lambda comm, params: "ok")


def runtime(comm: Communicator, method: str, params: tuple) -> str:
    try:
        return getattr(comm, method)(*params)
    except Exception as exc:  # what the call raises is the output
        return f"{type(exc).__name__}: {exc}"


def static(call: str) -> str:
    findings = lint_source(f"comm.{call}\n", spmd=False)
    return " ; ".join(f"{f.code}@{f.col} {f.message}"
                      for f in findings) or "clean"


def main() -> None:
    assert set(SAMPLES) == set(FACTORY_PARAMS), "a factory has no sample"
    built = {name: eval(text, vars(named_params))
             for name, text in SAMPLES.items()}
    comm = Communicator(None, plan_cache=_CompileOnly())
    names = list(SAMPLES)
    signatures = chain([()], ((name,) for name in names),
                       product(names, repeat=2))
    for chosen in signatures:
        args = ", ".join(SAMPLES[name] for name in chosen)
        params = tuple(built[name] for name in chosen)
        for method in sorted(METHOD_SPECS):
            call = f"{method}({args})"
            print(f"{call} => {runtime(comm, method, params)} || "
                  f"{static(call)}")


if __name__ == "__main__":
    main()
