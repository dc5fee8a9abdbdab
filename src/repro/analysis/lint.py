"""Layer 1: the per-call-site AST lint.

Runs the call-plan compiler's own contract check
(:func:`repro.core.plans.contract_errors`) over every wrapped-communicator
call it can recognize in the source — reporting missing / unsupported /
duplicate / ignored named parameters as the very errors the runtime would
raise — plus three dataflow checks no runtime validation can do before the
defect bites:

- ``RPL005`` — a non-blocking result whose ``wait()``/``test()`` is
  unreachable on some path (the static counterpart of MPIsan's
  ``ResourceLeakError``);
- ``RPL006`` — a container read again after being ``move()``-d into a call;
- ``RPL007`` — a ``no_resize`` receive container combined with
  library-inferred counts, which turns a size mismatch into a runtime
  ``BufferResizeError``.

The lint is deliberately *conservative*: when an argument is a variable, a
splat, or anything else it cannot resolve, the affected checks are skipped —
a reprolint finding is meant to always be worth acting on.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.errors import (
    DuplicateParameterError,
    IgnoredParameterError,
    MissingParameterError,
    UnsupportedParameterError,
)
from repro.core.parameters import IN, INOUT, OUT
from repro.core.plans import OpSpec, contract_errors

from repro.analysis.cfg import CFG
from repro.analysis.findings import Finding
from repro.analysis.signatures import (
    COUNT_INFERRING_METHODS,
    DISTINCTIVE_METHODS,
    EITHER_REQUIRED,
    FACTORY_PARAMS,
    METHOD_SPECS,
    NONBLOCKING_METHODS,
    looks_like_comm,
    spec_for,
)

_LITERAL_NODES = (ast.Constant, ast.List, ast.Tuple, ast.Dict, ast.Set)


def terminal_name(expr: ast.expr) -> Optional[str]:
    """``foo`` -> "foo", ``a.b.foo`` -> "foo"; None for anything else."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


@dataclass
class ParsedArg:
    """Classification of one positional argument of a wrapped call."""

    node: ast.expr
    kind: str  # "factory" | "literal" | "unknown" | "splat"
    key: Optional[str] = None
    direction: Optional[str] = None


@dataclass
class CommCall:
    """One recognized wrapped-communicator call site."""

    node: ast.Call
    method: str
    spec: OpSpec
    args: List[ParsedArg] = field(default_factory=list)

    @property
    def known(self) -> bool:
        """All positional arguments resolved to named-parameter factories."""
        return all(a.kind == "factory" for a in self.args)

    def keys(self, *directions: str) -> List[str]:
        wanted = directions or (IN, OUT, INOUT)
        return [a.key for a in self.args
                if a.kind == "factory" and a.key is not None
                and a.direction in wanted]

    def arg_for(self, key: str) -> Optional[ParsedArg]:
        for a in self.args:
            if a.kind == "factory" and a.key == key:
                return a
        return None


def parse_comm_call(call: ast.Call) -> Optional[CommCall]:
    """Recognize ``<comm>.<wrapped-op>(...)``; None if it is not one.

    Receivers named ``raw`` (the simulator's PMPI layer) are never treated
    as wrapped communicators.  For a method name that layer shares
    (``send``, ``gatherv``, …) either the receiver must be comm-like or at
    least one argument must be a named-parameter factory.
    """
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    method = func.attr
    spec = spec_for(method)
    if spec is None:
        return None
    receiver = terminal_name(func.value)
    if receiver == "raw":
        return None

    args = [_parse_arg(arg) for arg in call.args]
    has_factory = any(a.kind == "factory" for a in args)
    commish = receiver is not None and looks_like_comm(receiver)
    if not (has_factory or commish or method in DISTINCTIVE_METHODS):
        return None
    return CommCall(node=call, method=method, spec=spec, args=args)


def _parse_arg(arg: ast.expr) -> ParsedArg:
    if isinstance(arg, ast.Starred):
        return ParsedArg(arg, "splat")
    if isinstance(arg, ast.Call):
        name = terminal_name(arg.func)
        if name in FACTORY_PARAMS:
            key, direction = FACTORY_PARAMS[name]
            return ParsedArg(arg, "factory", key=key, direction=direction)
        return ParsedArg(arg, "unknown")
    if isinstance(arg, _LITERAL_NODES) or (
        isinstance(arg, ast.UnaryOp) and isinstance(arg.operand, ast.Constant)
    ):
        return ParsedArg(arg, "literal")
    return ParsedArg(arg, "unknown")


# ---------------------------------------------------------------------------
# the lint pass
# ---------------------------------------------------------------------------


def lint_module(tree: ast.Module, path: str) -> List[Finding]:
    findings: List[Finding] = []
    for call in _walk_calls(tree):
        comm_call = parse_comm_call(call)
        if comm_call is not None:
            _check_call(comm_call, path, findings)
    for scope in _scopes(tree):
        _check_dataflow(scope, path, findings)
    return findings


def _walk_calls(tree: ast.AST) -> List[ast.Call]:
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)]


def _scopes(tree: ast.Module) -> List[Sequence[ast.stmt]]:
    """The module body plus every (async) function body, outermost first."""
    scopes: List[Sequence[ast.stmt]] = [tree.body]
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scopes.append(node.body)
    return scopes


def _finding(findings: List[Finding], code: str, message: str, path: str,
             node: ast.AST, **details: object) -> None:
    findings.append(Finding(
        code=code, message=message, path=path,
        line=getattr(node, "lineno", 0), col=getattr(node, "col_offset", 0),
        details=details,
    ))


# -- per-call parameter-contract checks (RPL001-RPL004, RPL007, RPL008) -----

#: the finding code of each contract error
_CODES = {
    MissingParameterError: "RPL001",
    UnsupportedParameterError: "RPL002",
    DuplicateParameterError: "RPL003",
    IgnoredParameterError: "RPL004",
}


def _check_call(cc: CommCall, path: str, findings: List[Finding]) -> None:
    spec = cc.spec
    op = spec.name

    # RPL008: literals can never be Parameter objects
    for a in cc.args:
        if a.kind == "literal":
            _finding(
                findings, "RPL008",
                f"{op}() arguments must be named parameters (send_buf(...), "
                f"recv_counts_out(), ...); got a bare literal",
                path, a.node,
            )

    # RPL001-RPL004: the contract errors of the resolved factory calls
    resolved = [a for a in cc.args if a.kind == "factory"]
    for error in contract_errors(spec, resolved):
        if isinstance(error, MissingParameterError) and not cc.known:
            continue  # an unresolved argument could be the missing parameter
        node = (resolved[error.position].node
                if isinstance(error, UnsupportedParameterError) else cc.node)
        if isinstance(error, DuplicateParameterError):
            details = {"keys": error.keys}
        else:
            details = {"key": error.key}
        _finding(findings, _CODES[type(error)], str(error), path, node,
                 **details)

    # RPL001 for the two operations whose buffer is one of several
    if cc.known:
        either = EITHER_REQUIRED.get(cc.method)
        if either is not None and not (set(either) & set(cc.keys())):
            alts = " (or ".join(either) + (")" if len(either) > 1 else "")
            _finding(findings, "RPL001",
                     f"{cc.method} requires {alts}",
                     path, cc.node, key=either[0])

    # RPL007: no_resize recv container + inferred counts
    if cc.method in COUNT_INFERRING_METHODS and cc.known:
        recv = cc.arg_for("recv_buf")
        if (recv is not None and _takes_container(recv)
                and _resize_policy_name(recv) in (None, "no_resize")
                and "recv_counts" not in set(cc.keys(IN))):
            _finding(
                findings, "RPL007",
                f"{op}(): recv_buf(...) keeps the default no_resize policy "
                f"while the receive counts are inferred by the library; a "
                f"size mismatch only surfaces at runtime as "
                f"BufferResizeError — pass recv_counts(...) or "
                f"resize=resize_to_fit/grow_only",
                path, recv.node,
            )


def _takes_container(arg: ParsedArg) -> bool:
    call = arg.node
    if not isinstance(call, ast.Call) or not call.args:
        return False
    first = call.args[0]
    return not (isinstance(first, ast.Constant) and first.value is None)


def _resize_policy_name(arg: ParsedArg) -> Optional[str]:
    """The resize policy's terminal name, or None when left to the default."""
    call = arg.node
    if not isinstance(call, ast.Call):
        return None
    for kw in call.keywords:
        if kw.arg == "resize":
            return terminal_name(kw.value) or "<dynamic>"
    return None


# -- dataflow checks (RPL005, RPL006) ------------------------------------------


def _check_dataflow(body: Sequence[ast.stmt], path: str,
                    findings: List[Finding]) -> None:
    cfg = CFG.build(body)
    for node_id, stmt in list(cfg.stmts.items()):
        _check_leaks(cfg, node_id, stmt, path, findings)
        _check_moves(cfg, node_id, stmt, path, findings)


def _nonblocking_call(expr: ast.expr) -> Optional[CommCall]:
    if not isinstance(expr, ast.Call):
        return None
    cc = parse_comm_call(expr)
    if cc is None or cc.method not in NONBLOCKING_METHODS:
        return None
    return cc


def _check_leaks(cfg: CFG, node_id: int, stmt: ast.stmt, path: str,
                 findings: List[Finding]) -> None:
    # discarded outright: `comm.isend(...)` as a bare expression statement
    if isinstance(stmt, ast.Expr):
        cc = _nonblocking_call(stmt.value)
        if cc is not None:
            _finding(
                findings, "RPL005",
                f"the NonBlockingResult of {cc.method}() is discarded; the "
                f"request can never be completed with wait()/test() "
                f"(runtime counterpart: MPIsan ResourceLeakError)",
                path, stmt,
            )
        return

    # assigned to a name: require a read on *every* path to function exit
    for name, value in _simple_bindings(stmt):
        cc = _nonblocking_call(value)
        if cc is None:
            continue
        if cfg.path_without_read(node_id, name):
            _finding(
                findings, "RPL005",
                f"non-blocking result '{name}' from {cc.method}() is not "
                f"completed on some path: wait()/test() is unreachable "
                f"(runtime counterpart: MPIsan ResourceLeakError)",
                path, stmt, name=name,
            )


def _simple_bindings(stmt: ast.stmt) -> List[Tuple[str, ast.expr]]:
    """``name = <expr>`` bindings, including parallel tuple assignments."""
    out: List[Tuple[str, ast.expr]] = []
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target = stmt.targets[0]
        if isinstance(target, ast.Name):
            out.append((target.id, stmt.value))
        elif (isinstance(target, ast.Tuple)
              and isinstance(stmt.value, ast.Tuple)
              and len(target.elts) == len(stmt.value.elts)):
            for t, v in zip(target.elts, stmt.value.elts):
                if isinstance(t, ast.Name):
                    out.append((t.id, v))
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        if isinstance(stmt.target, ast.Name):
            out.append((stmt.target.id, stmt.value))
    return out


def _check_moves(cfg: CFG, node_id: int, stmt: ast.stmt, path: str,
                 findings: List[Finding]) -> None:
    for moved in _moved_names(cfg, node_id):
        if cfg.writes(node_id, moved):
            continue  # `x = op(send_buf(move(x)))` rebinds x immediately
        use = cfg.first_read_after(node_id, moved, skip={node_id})
        if use is not None:
            _finding(
                findings, "RPL006",
                f"'{moved}' is used here but was moved into a communication "
                f"call on line {stmt.lineno}; a moved-from container is "
                f"owned by the call — use the returned value instead, or "
                f"drop the move()",
                path, use, name=moved,
            )


def _moved_names(cfg: CFG, node_id: int) -> List[str]:
    names: List[str] = []
    stmt = cfg.stmts[node_id]
    for node in ast.walk(_header_only(stmt)):
        if (isinstance(node, ast.Call)
                and terminal_name(node.func) == "move"
                and len(node.args) == 1
                and isinstance(node.args[0], ast.Name)):
            names.append(node.args[0].id)
    return names


def _header_only(stmt: ast.stmt) -> ast.AST:
    """The statement without nested statement bodies (mirror of CFG scan)."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return ast.Module(body=[], type_ignores=[])
    shallow = ast.Module(body=[], type_ignores=[])
    exprs: List[ast.AST] = []
    for fld, value in ast.iter_fields(stmt):
        if fld in ("body", "orelse", "finalbody", "handlers"):
            continue
        if isinstance(value, ast.AST):
            exprs.append(value)
        elif isinstance(value, list):
            exprs.extend(v for v in value if isinstance(v, ast.AST))
    shallow.body = exprs  # type: ignore[assignment]
    return shallow
