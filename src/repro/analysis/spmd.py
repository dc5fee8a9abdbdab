"""Layer 2: the SPMD protocol checker.

An abstract interpreter over the AST of every function taking a ``comm``
parameter.  The function body is evaluated once per simulated rank (a
universe of :data:`SIM_SIZE` ranks): branch conditions over ``comm.rank`` /
``comm.size`` / ``comm.is_root()`` and integer locals derived from them are
*decided* per rank, so rank-dependent branches fork into genuinely different
per-rank event sequences.  The per-rank sequences of collective and
point-to-point calls are then cross-checked:

- ``RPL101`` — ranks disagree on which collective comes next (deadlock);
- ``RPL102`` — aligned collectives disagree on the root;
- ``RPL103`` — aligned reductions disagree on the operation;
- ``RPL104`` — a send with no matching receive, or vice versa (matching is
  maximum-bipartite over (peer, tag), so wildcard receives are honoured).

The checker is conservative: any construct it cannot decide — a branch on a
value it cannot evaluate whose arms communicate differently, a data-dependent
loop around communication with rank-dependent trip count, ``comm`` escaping
into a helper function — makes it *give up on the whole function* rather
than guess.  No finding is ever reported on code it did not fully model.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.findings import Finding
from repro.analysis.lint import parse_comm_call, terminal_name
from repro.analysis.signatures import (
    COLLECTIVE_METHODS,
    METHOD_SPECS,
    RECV_METHODS,
    REDUCTION_METHODS,
    ROOTED_METHODS,
    SEND_METHODS,
)
from repro.core.named_params import _FUNCTOR_MAP
from repro.mpi.ops import BUILTIN_OPS

#: number of simulated ranks (communicator size) used to evaluate branches
SIM_SIZE = 4
#: statically-unrollable loop budget; longer loops become composite events
MAX_UNROLL = 64
#: per-rank event budget (runaway-unrolling backstop)
MAX_EVENTS = 2048

#: canonicalization of op() arguments, so spellings that resolve to the same
#: built-in reduction (operator.add, np.add, SUM, sum) compare equal: the
#: built-ins' constant names, and the functors ``op()`` maps to them
_OP_CANON = {name.upper(): name.upper() for name in BUILTIN_OPS} | {
    functor.__name__: builtin.name.upper()
    for functor, builtin in _FUNCTOR_MAP.items()}

# The event node types are shared with the dynamic communication-plan IR
# (one vocabulary for "what a program communicates", static and recorded);
# re-exported here so existing importers keep working.
from repro.mpi.ir.nodes import ANY, Coll, Event, Loop, P2P  # noqa: E402

Value = Optional[object]  # int | bool | tuple | range | None (=unknown)


class GiveUp(Exception):
    """The function uses a construct the abstract interpreter cannot model."""


class _Return(Exception):
    pass


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


# ---------------------------------------------------------------------------
# per-rank abstract execution
# ---------------------------------------------------------------------------


class RankWalker:
    """Evaluates one function body as seen by one concrete rank."""

    def __init__(self, comm_name: str, rank: int, size: int):
        self.comm = comm_name
        self.rank = rank
        self.size = size
        self.env: Dict[str, Value] = {}
        self.events: List[Event] = []
        self.unknown_p2p = False

    # -- expression evaluation ------------------------------------------------

    def aeval(self, expr: ast.expr) -> Value:
        """Best-effort static evaluation under this rank's environment."""
        try:
            return self._aeval(expr)
        except GiveUp:
            raise
        except Exception:
            return None

    def _aeval(self, expr: ast.expr) -> Value:
        if isinstance(expr, ast.Constant):
            return expr.value if isinstance(expr.value, (int, bool)) else None
        if isinstance(expr, ast.Name):
            return self.env.get(expr.id)
        if isinstance(expr, ast.Attribute):
            if isinstance(expr.value, ast.Name) and expr.value.id == self.comm:
                if expr.attr == "rank":
                    return self.rank
                if expr.attr == "size":
                    return self.size
            return None
        if isinstance(expr, ast.Tuple):
            return tuple(self._aeval(e) for e in expr.elts)
        if isinstance(expr, ast.UnaryOp):
            v = self._aeval(expr.operand)
            if isinstance(expr.op, ast.Not):
                return (not v) if v is not None else None
            if isinstance(expr.op, ast.USub) and isinstance(v, int):
                return -v
            return None
        if isinstance(expr, ast.BinOp):
            lhs, rhs = self._aeval(expr.left), self._aeval(expr.right)
            if not (isinstance(lhs, int) and isinstance(rhs, int)):
                return None
            ops = {
                ast.Add: lambda: lhs + rhs, ast.Sub: lambda: lhs - rhs,
                ast.Mult: lambda: lhs * rhs,
                ast.FloorDiv: lambda: lhs // rhs if rhs else None,
                ast.Mod: lambda: lhs % rhs if rhs else None,
            }
            fn = ops.get(type(expr.op))
            return fn() if fn else None
        if isinstance(expr, ast.Compare) and len(expr.ops) == 1:
            lhs = self._aeval(expr.left)
            rhs = self._aeval(expr.comparators[0])
            if lhs is None or rhs is None:
                return None
            ops = {
                ast.Eq: lambda: lhs == rhs, ast.NotEq: lambda: lhs != rhs,
                ast.Lt: lambda: lhs < rhs, ast.LtE: lambda: lhs <= rhs,
                ast.Gt: lambda: lhs > rhs, ast.GtE: lambda: lhs >= rhs,
            }
            fn = ops.get(type(expr.ops[0]))
            return fn() if fn else None
        if isinstance(expr, ast.BoolOp):
            values = [self._aeval(v) for v in expr.values]
            if any(v is None for v in values):
                return None
            if isinstance(expr.op, ast.And):
                return all(bool(v) for v in values)
            return any(bool(v) for v in values)
        if isinstance(expr, ast.Call):
            func = expr.func
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == self.comm
                    and func.attr == "is_root"):
                root = self._aeval(expr.args[0]) if expr.args else 0
                return None if root is None else self.rank == root
            if isinstance(func, ast.Name) and func.id == "range":
                parts = [self._aeval(a) for a in expr.args]
                if all(isinstance(p, int) for p in parts) and 1 <= len(parts) <= 3:
                    return range(*parts)  # type: ignore[arg-type]
                return None
            if isinstance(func, ast.Name) and func.id in ("int", "len"):
                return None
        return None

    # -- statements ---------------------------------------------------------------

    def walk_block(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            self.walk_stmt(stmt)

    def walk_stmt(self, stmt: ast.stmt) -> None:
        if len(self.events) > MAX_EVENTS:
            raise GiveUp("event budget exceeded")
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Import, ast.ImportFrom,
                             ast.Global, ast.Nonlocal, ast.Pass)):
            return
        if isinstance(stmt, ast.If):
            self._walk_if(stmt)
        elif isinstance(stmt, ast.While):
            self._walk_while(stmt)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._walk_for(stmt)
        elif isinstance(stmt, ast.Try):
            # exceptional control flow is not modelled: handlers are skipped
            self.walk_block(stmt.body)
            self.walk_block(stmt.orelse)
            self.walk_block(stmt.finalbody)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._scan_events(item.context_expr)
            self.walk_block(stmt.body)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._scan_events(stmt.value)
            raise _Return()
        elif isinstance(stmt, ast.Break):
            raise _Break()
        elif isinstance(stmt, ast.Continue):
            raise _Continue()
        elif isinstance(stmt, ast.Assign):
            self._scan_events(stmt.value)
            value = self.aeval(stmt.value)
            for target in stmt.targets:
                self._bind(target, value)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._scan_events(stmt.value)
                self._bind(stmt.target, self.aeval(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            self._scan_events(stmt.value)
            if isinstance(stmt.target, ast.Name):
                self.env.pop(stmt.target.id, None)
        elif isinstance(stmt, (ast.Expr, ast.Assert, ast.Raise, ast.Delete)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._scan_events(child)
            if isinstance(stmt, ast.Raise):
                raise _Return()  # control leaves the function
        else:
            # unsupported statement kind (match, ...) — only safe to skip
            # when it cannot communicate
            if self._contains_comm_call(stmt):
                raise GiveUp(f"unmodeled statement {type(stmt).__name__}")

    def _bind(self, target: ast.expr, value: Value) -> None:
        if isinstance(target, ast.Name):
            if value is None:
                self.env.pop(target.id, None)
            else:
                self.env[target.id] = value
        elif isinstance(target, ast.Tuple):
            parts = value if isinstance(value, tuple) else None
            for i, elt in enumerate(target.elts):
                part = parts[i] if parts is not None and i < len(parts) else None
                self._bind(elt, part)

    # -- control flow -----------------------------------------------------------

    def _walk_if(self, stmt: ast.If) -> None:
        cond = self.aeval(stmt.test)
        self._scan_events(stmt.test)
        if cond is not None:
            self.walk_block(stmt.body if cond else stmt.orelse)
            return
        # undecidable branch: only safe when both arms communicate alike
        then_events, then_unknown = self._walk_subtree(stmt.body)
        else_events, else_unknown = self._walk_subtree(stmt.orelse)
        if [e.key() for e in then_events] != [e.key() for e in else_events]:
            raise GiveUp("undecidable branch with differing communication")
        self.unknown_p2p |= then_unknown or else_unknown
        self.events.extend(then_events)

    def _walk_subtree(self, stmts: Sequence[ast.stmt]
                      ) -> Tuple[List[Event], bool]:
        """Walk ``stmts`` into a scratch buffer."""
        outer_events, outer_unknown = self.events, self.unknown_p2p
        self.events, self.unknown_p2p = [], False
        try:
            self.walk_block(stmts)
        except (_Return, _Break, _Continue):
            # an arm of an *undecidable* branch leaving early means the two
            # arms cannot be lined up statement-for-statement
            raise GiveUp("early exit inside an undecidable branch")
        finally:
            scratch, unknown = self.events, self.unknown_p2p
            self.events, self.unknown_p2p = outer_events, outer_unknown
        return scratch, unknown

    def _walk_while(self, stmt: ast.While) -> None:
        if self._contains_comm_call(stmt.test):
            raise GiveUp("communication inside a while-loop condition")
        cond = self.aeval(stmt.test)
        if cond is not None and not cond:
            self.walk_block(stmt.orelse)
            return
        body, unknown = self._walk_composite_body(stmt.body)
        if cond:  # statically-true condition: trip count unknowable
            if body:
                raise GiveUp("while-loop with communication")
            self.walk_block(stmt.orelse)
            return
        if body:
            if unknown or any(isinstance(e, P2P) for e in _flatten(body)):
                self.unknown_p2p = True
            self.events.append(Loop(tuple(body), stmt.lineno))
        self.walk_block(stmt.orelse)

    def _walk_for(self, stmt: Union[ast.For, ast.AsyncFor]) -> None:
        iterable = self.aeval(stmt.iter)
        self._scan_events(stmt.iter)
        if isinstance(iterable, (range, tuple)) and len(iterable) <= MAX_UNROLL:
            try:
                for item in iterable:
                    self._bind(stmt.target, item if isinstance(item, (int, bool))
                               else None)
                    try:
                        self.walk_block(stmt.body)
                    except _Continue:
                        continue
            except _Break:
                return  # break skips the else clause
            self.walk_block(stmt.orelse)
            return
        # unknown (or huge) trip count: model the body as one composite event
        self._bind(stmt.target, None)
        body, unknown = self._walk_composite_body(stmt.body)
        if body:
            if unknown or any(isinstance(e, P2P) for e in _flatten(body)):
                self.unknown_p2p = True
            self.events.append(Loop(tuple(body), stmt.lineno))
        self.walk_block(stmt.orelse)

    def _walk_composite_body(self, stmts: Sequence[ast.stmt]
                             ) -> Tuple[List[Event], bool]:
        outer_events, outer_unknown = self.events, self.unknown_p2p
        self.events, self.unknown_p2p = [], False
        try:
            self.walk_block(stmts)
        except (_Break, _Continue):
            pass
        except _Return:
            raise GiveUp("return inside a loop with unknown trip count")
        finally:
            scratch, unknown = self.events, self.unknown_p2p
            self.events, self.unknown_p2p = outer_events, outer_unknown
        return scratch, unknown

    # -- event extraction ---------------------------------------------------------

    def _scan_events(self, expr: ast.expr) -> None:
        """Record every wrapped-communicator call nested in ``expr``."""
        calls = [node for node in ast.walk(expr)
                 if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Attribute)
                 and isinstance(node.func.value, ast.Name)
                 and node.func.value.id == self.comm
                 and node.func.attr in METHOD_SPECS]
        for call in sorted(calls, key=lambda c: (c.lineno, c.col_offset)):
            self._record_event(call)

    def _record_event(self, call: ast.Call) -> None:
        method = call.func.attr  # type: ignore[attr-defined]
        cc = parse_comm_call(call)
        if cc is None:
            return
        line = call.lineno
        if method in SEND_METHODS or method in RECV_METHODS:
            kind = "send" if method in SEND_METHODS else "recv"
            peer_key = "destination" if kind == "send" else "source"
            peer = self._factory_value(cc, peer_key,
                                       default=0 if kind == "send" else ANY)
            tag = self._factory_value(cc, "tag",
                                      default=0 if kind == "send" else ANY)
            if kind == "send":
                # a send without destination() is a Layer-1 finding already
                if cc.arg_for("destination") is None:
                    peer = None
            if peer is None or tag is None:
                self.unknown_p2p = True
            self.events.append(P2P(kind, self.rank, peer, tag, line))
            return
        if method in COLLECTIVE_METHODS:
            canon = METHOD_SPECS[method]
            root: Optional[int] = None
            if method in ROOTED_METHODS:
                value = self._factory_value(cc, "root", default=0)
                root = value if isinstance(value, int) else None
            op = None
            if method in REDUCTION_METHODS:
                op = self._op_name(cc)
            self.events.append(Coll(canon, root, op, line))

    def _factory_value(self, cc: "object", key: str,
                       default: Union[int, str]) -> Optional[Union[int, str]]:
        arg = cc.arg_for(key)  # type: ignore[attr-defined]
        if arg is None:
            return default
        call = arg.node
        if isinstance(call, ast.Call) and call.args:
            value = self.aeval(call.args[0])
            return value if isinstance(value, int) else None
        return None

    def _op_name(self, cc: "object") -> Optional[str]:
        arg = cc.arg_for("op")  # type: ignore[attr-defined]
        if arg is None or not isinstance(arg.node, ast.Call) or not arg.node.args:
            return None
        name = terminal_name(arg.node.args[0])
        return _OP_CANON.get(name) if name is not None else None

    def _contains_comm_call(self, node: ast.AST) -> bool:
        return any(
            isinstance(child, ast.Call)
            and isinstance(child.func, ast.Attribute)
            and isinstance(child.func.value, ast.Name)
            and child.func.value.id == self.comm
            and child.func.attr in METHOD_SPECS
            for child in ast.walk(node)
        )


def _flatten(events: Sequence[Event]) -> List[Event]:
    out: List[Event] = []
    for e in events:
        if isinstance(e, Loop):
            out.extend(_flatten(e.body))
        else:
            out.append(e)
    return out


# ---------------------------------------------------------------------------
# cross-rank checking
# ---------------------------------------------------------------------------


def check_module(tree: ast.Module, path: str) -> List[Finding]:
    findings: List[Finding] = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        comm_name = _comm_param(fn)
        if comm_name is None:
            continue
        findings.extend(_check_function(fn, comm_name, path))
    return findings


def _comm_param(fn: Union[ast.FunctionDef, ast.AsyncFunctionDef]
                ) -> Optional[str]:
    for arg in fn.args.args + fn.args.posonlyargs + fn.args.kwonlyargs:
        if arg.arg == "comm":
            return arg.arg
    return None


def _comm_escapes(fn: ast.AST, comm_name: str) -> bool:
    """True when ``comm`` is used other than as ``comm.<attr>`` — aliased,
    passed to a helper, stored — so its communication cannot be modelled."""
    attribute_bases = {
        id(node.value) for node in ast.walk(fn)
        if isinstance(node, ast.Attribute)
    }
    for node in ast.walk(fn):
        if (isinstance(node, ast.Name) and node.id == comm_name
                and id(node) not in attribute_bases):
            return True
    return False


def _check_function(fn: Union[ast.FunctionDef, ast.AsyncFunctionDef],
                    comm_name: str, path: str) -> List[Finding]:
    if _comm_escapes(fn, comm_name):
        return []
    per_rank: List[RankWalker] = []
    for rank in range(SIM_SIZE):
        walker = RankWalker(comm_name, rank, SIM_SIZE)
        try:
            try:
                walker.walk_block(fn.body)
            except _Return:
                pass
        except GiveUp:
            return []
        per_rank.append(walker)

    findings: List[Finding] = []
    reference = _coll_filter(per_rank[0].events)
    for other in per_rank[1:]:
        mismatch = _compare_colls(reference, _coll_filter(other.events),
                                  0, other.rank, path)
        if mismatch is not None:
            findings.append(mismatch)
            break  # one structural finding per function: the rest cascades

    if not findings and not any(w.unknown_p2p for w in per_rank):
        findings.extend(_match_p2p(per_rank, path))

    unique: Dict[Tuple[str, int, str], Finding] = {}
    for f in findings:
        unique.setdefault((f.code, f.line, f.message), f)
    return list(unique.values())


def _coll_filter(events: Sequence[Event]) -> List[Event]:
    out: List[Event] = []
    for e in events:
        if isinstance(e, Coll):
            out.append(e)
        elif isinstance(e, Loop):
            sub = _coll_filter(e.body)
            if sub:
                out.append(Loop(tuple(sub), e.line))
    return out


def _compare_colls(a: Sequence[Event], b: Sequence[Event], rank_a: int,
                   rank_b: int, path: str) -> Optional[Finding]:
    for i in range(max(len(a), len(b))):
        if i >= len(a) or i >= len(b):
            # one rank has extra trailing events; loops with unknown trip
            # count may run zero times, so only a definite (non-loop) extra
            # event is a definite deadlock
            tail = b[i:] if i >= len(a) else a[i:]
            behind, ahead = ((rank_a, rank_b) if i >= len(a)
                             else (rank_b, rank_a))
            extra = next((e for e in tail if not isinstance(e, Loop)), None)
            if extra is None:
                return None
            return Finding(
                "RPL101",
                f"collective order mismatch: rank {ahead} reaches "
                f"{_describe(extra)} here, but rank {behind} has already "
                f"left the function — the call can never complete",
                path, extra.line)
        ea, eb = a[i], b[i]
        if isinstance(ea, Loop) or isinstance(eb, Loop):
            if not (isinstance(ea, Loop) and isinstance(eb, Loop)):
                # a loop on one side may be zero-trip: not definitely a
                # mismatch, and alignment past it needs trip-count reasoning
                # the model does not do — stay silent
                return None
            if ea.key() != eb.key():
                nested = _compare_colls(ea.body, eb.body, rank_a, rank_b, path)
                if nested is not None:
                    return nested
            continue
        assert isinstance(ea, Coll) and isinstance(eb, Coll)
        if ea.name != eb.name:
            return Finding(
                "RPL101",
                f"collective order mismatch: rank {rank_a} calls "
                f"{ea.name}() (line {ea.line}) where rank {rank_b} calls "
                f"{eb.name}() (line {eb.line}); mismatched collectives "
                f"deadlock", path, min(ea.line, eb.line))
        if (ea.root is not None and eb.root is not None
                and ea.root != eb.root):
            return Finding(
                "RPL102",
                f"root mismatch: rank {rank_a} calls {ea.name}() with "
                f"root {ea.root} (line {ea.line}) but rank {rank_b} passes "
                f"root {eb.root} (line {eb.line}); every rank must name "
                f"the same root", path, min(ea.line, eb.line))
        if ea.op is not None and eb.op is not None and ea.op != eb.op:
            return Finding(
                "RPL103",
                f"reduction op mismatch: rank {rank_a} calls {ea.name}() "
                f"with op {ea.op} (line {ea.line}) but rank {rank_b} uses "
                f"op {eb.op} (line {eb.line}); the result is "
                f"rank-dependent garbage", path, min(ea.line, eb.line))
    return None


def _describe(e: Event) -> str:
    if isinstance(e, Coll):
        return f"{e.name}()"
    return "a communicating loop"


def _match_p2p(per_rank: Sequence[RankWalker], path: str) -> List[Finding]:
    sends: List[P2P] = []
    recvs: List[P2P] = []
    for walker in per_rank:
        for e in walker.events:
            if isinstance(e, P2P):
                (sends if e.kind == "send" else recvs).append(e)
    if not sends or not recvs:
        # a function with only one side of an exchange usually has its
        # partner in *another* function; matching would be pure noise
        return []

    # maximum bipartite matching so wildcard receives are used where needed
    def compatible(s: P2P, r: P2P) -> bool:
        return (r.rank == s.peer
                and (r.peer == ANY or r.peer == s.rank)
                and (r.tag == ANY or r.tag == s.tag))

    match_of_recv: Dict[int, int] = {}
    match_of_send: Dict[int, int] = {}

    def augment(si: int, visited: Set[int]) -> bool:
        for ri, r in enumerate(recvs):
            if ri in visited or not compatible(sends[si], r):
                continue
            visited.add(ri)
            if ri not in match_of_recv or augment(match_of_recv[ri], visited):
                match_of_recv[ri] = si
                match_of_send[si] = ri
                return True
        return False

    for si in range(len(sends)):
        augment(si, set())

    findings: List[Finding] = []
    for si, s in enumerate(sends):
        if si not in match_of_send:
            findings.append(Finding(
                "RPL104",
                f"unmatched send: rank {s.rank} sends to rank {s.peer} with "
                f"tag {s.tag}, but no rank posts a matching recv — the send "
                f"blocks forever", path, s.line))
    for ri, r in enumerate(recvs):
        if ri not in match_of_recv:
            findings.append(Finding(
                "RPL104",
                f"unmatched recv: rank {r.rank} expects a message from "
                f"{_peer_str(r.peer)} with tag {_peer_str(r.tag)}, but no "
                f"rank sends one — the recv blocks forever", path, r.line))
    return findings


def _peer_str(value: Optional[Union[int, str]]) -> str:
    return "any" if value == ANY else str(value)
