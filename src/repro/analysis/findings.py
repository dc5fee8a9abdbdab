"""Finding objects and the RPL code registry.

Every defect ``reprolint`` can report carries a stable code.  ``RPL0xx``
codes are Layer-1 findings (per-call-site AST lint, the static counterpart of
the call-plan compiler's :class:`~repro.core.errors.UsageError` family and of
MPIsan's runtime resource audit); ``RPL1xx`` codes are Layer-2 findings (the
SPMD protocol checker, which flags cross-rank mismatches — deadlocks found
without the machine ever spawning).

An ``RPL001``–``RPL004`` finding is one error of the call-plan compiler's
own contract check (:func:`repro.core.plans.contract_errors`) and its message
is that error's, so the static diagnostic is *verbatim* what the runtime
would raise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass(frozen=True)
class Code:
    """One registered finding code."""

    id: str
    title: str
    layer: int  # 1 = AST lint, 2 = SPMD protocol checker


#: registry of every code reprolint can emit, in numeric order
CODES: Dict[str, Code] = {}


def _code(id: str, title: str, layer: int) -> Code:
    code = Code(id, title, layer)
    CODES[id] = code
    return code


RPL001 = _code("RPL001", "missing required named parameter", 1)
RPL002 = _code("RPL002", "unsupported named parameter", 1)
RPL003 = _code("RPL003", "duplicate named parameter", 1)
RPL004 = _code("RPL004", "parameter ignored by the in-place variant", 1)
RPL005 = _code("RPL005", "non-blocking result may never complete", 1)
RPL006 = _code("RPL006", "use of a buffer after move()", 1)
RPL007 = _code("RPL007", "no_resize recv container with inferred counts", 1)
RPL008 = _code("RPL008", "positional argument is not a named parameter", 1)
RPL101 = _code("RPL101", "collective order mismatch between ranks", 2)
RPL102 = _code("RPL102", "collective root mismatch between ranks", 2)
RPL103 = _code("RPL103", "reduction op mismatch between ranks", 2)
RPL104 = _code("RPL104", "unmatched send/recv pair", 2)
#: internal: the file could not be parsed at all
RPL000 = _code("RPL000", "syntax error", 1)


@dataclass(frozen=True)
class Finding:
    """One reported defect, anchored to a source location."""

    code: str
    message: str
    path: str
    line: int
    col: int = 0
    #: free-form extras (ranks involved, parameter key, ...) for tooling
    details: Dict[str, object] = field(default_factory=dict)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def as_json(self) -> Dict[str, object]:
        return {
            "code": self.code,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "details": dict(self.details),
        }
