"""A small statement-level control-flow graph for reachability queries.

Layer 1 needs exactly one dataflow question answered, twice:

- is there a path from a non-blocking call's assignment to function exit on
  which the result is never *read* again (``wait()``/``test()`` unreachable —
  the static counterpart of MPIsan's ``ResourceLeakError``), and
- is there a path from a ``move(v)`` on which ``v`` is read again before
  being rebound (use-after-move)?

The graph is deliberately approximate in the sound direction for each query:
exceptional edges out of ``try`` bodies are *not* modelled (they could only
add leak paths, and reporting them would drown users in false positives),
and every read of a name counts as a potential completion/rebind.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

EXIT = -1

#: statement fields holding nested statement lists (excluded from header scans)
_BODY_FIELDS = ("body", "orelse", "finalbody", "handlers")


class CFG:
    """Control-flow graph over the statements of one function body."""

    def __init__(self) -> None:
        self.stmts: Dict[int, ast.stmt] = {}
        self.succ: Dict[int, Set[int]] = {EXIT: set()}
        self._next_id = 0

    def _new_node(self, stmt: ast.stmt) -> int:
        node = self._next_id
        self._next_id += 1
        self.stmts[node] = stmt
        self.succ[node] = set()
        return node

    def _link(self, sources: Sequence[int], target: int) -> None:
        for source in sources:
            self.succ[source].add(target)

    # -- construction -------------------------------------------------------

    @classmethod
    def build(cls, body: Sequence[ast.stmt]) -> "CFG":
        cfg = cls()
        fringe = cfg._build_block(body, [], loops=[])
        cfg._link(fringe, EXIT)
        return cfg

    def _build_block(self, body: Sequence[ast.stmt], preds: List[int],
                     loops: List[Tuple[List[int], List[int]]]) -> List[int]:
        """Wire ``body`` after ``preds``; returns the block's exit fringe.

        ``loops`` is a stack of ``(break_collector, continue_collector)``.
        """
        fringe = list(preds)
        for stmt in body:
            node = self._new_node(stmt)
            self._link(fringe, node)
            if isinstance(stmt, (ast.Return, ast.Raise)):
                self._link([node], EXIT)
                fringe = []
            elif isinstance(stmt, ast.Break):
                if loops:
                    loops[-1][0].append(node)
                fringe = []
            elif isinstance(stmt, ast.Continue):
                if loops:
                    loops[-1][1].append(node)
                fringe = []
            elif isinstance(stmt, ast.If):
                then_f = self._build_block(stmt.body, [node], loops)
                else_f = (self._build_block(stmt.orelse, [node], loops)
                          if stmt.orelse else [node])
                fringe = then_f + else_f
            elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                breaks: List[int] = []
                continues: List[int] = []
                loops.append((breaks, continues))
                body_f = self._build_block(stmt.body, [node], loops)
                loops.pop()
                # back edge: loop body (and continue) re-enters the header
                self._link(body_f + continues, node)
                else_f = (self._build_block(stmt.orelse, [node], loops)
                          if stmt.orelse else [node])
                fringe = else_f + breaks
            elif isinstance(stmt, ast.Try):
                body_f = self._build_block(stmt.body, [node], loops)
                else_f = (self._build_block(stmt.orelse, body_f, loops)
                          if stmt.orelse else body_f)
                handler_fringes: List[int] = []
                for handler in stmt.handlers:
                    handler_fringes += self._build_block(
                        handler.body, [node], loops
                    )
                merged = else_f + handler_fringes
                if stmt.finalbody:
                    fringe = self._build_block(stmt.finalbody, merged, loops)
                else:
                    fringe = merged
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                fringe = self._build_block(stmt.body, [node], loops)
            else:
                # plain statements — including nested function/class
                # definitions, which are analyzed separately
                fringe = [node]
        return fringe

    # -- queries ----------------------------------------------------------------

    def header_names(self, node: int) -> Iterator[ast.Name]:
        """Every Name in the statement's *own* expressions (not nested bodies)."""
        stmt = self.stmts[node]
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return iter(())
        for field, value in ast.iter_fields(stmt):
            if field in _BODY_FIELDS:
                continue
            for child in ast.walk(_as_node(value)):
                if isinstance(child, ast.Name):
                    yield child  # type: ignore[misc]

    def reads(self, node: int, name: str) -> bool:
        return any(
            n.id == name and isinstance(n.ctx, ast.Load)
            for n in self.header_names(node)
        )

    def writes(self, node: int, name: str) -> bool:
        return any(
            n.id == name and isinstance(n.ctx, (ast.Store, ast.Del))
            for n in self.header_names(node)
        )

    def path_without_read(self, start: int, name: str) -> bool:
        """True if some path from ``start``'s successors to EXIT never
        reads ``name`` (rebinding without a read counts as losing it)."""
        seen: Set[int] = set()
        work = list(self.succ.get(start, ()))
        while work:
            node = work.pop()
            if node in seen:
                continue
            seen.add(node)
            if node == EXIT:
                return True
            if self.reads(node, name):
                continue  # completed (or escaped) on this path
            if self.writes(node, name):
                return True  # handle rebound while still pending: lost
            work.extend(self.succ.get(node, ()))
        return False

    def first_read_after(self, start: int, name: str,
                         skip: Optional[Set[int]] = None) -> Optional[ast.stmt]:
        """First statement (BFS) after ``start`` reading ``name`` before any
        rebinding of it; None if every path rebinds or exits first.

        Nodes in ``skip`` never match (re-reaching the moving statement via a
        loop back edge re-executes the move, which is fine)."""
        seen: Set[int] = set(skip or ())
        work = list(self.succ.get(start, ()))
        while work:
            node = work.pop(0)
            if node in seen or node == EXIT:
                continue
            seen.add(node)
            if self.reads(node, name):
                return self.stmts[node]
            if self.writes(node, name):
                continue  # rebound: the moved-from name is live again
            work.extend(self.succ.get(node, ()))
        return None


def _as_node(value: object) -> ast.AST:
    """Wrap a field value (node, list of nodes, or scalar) for ast.walk."""
    if isinstance(value, ast.AST):
        return value
    wrapper = ast.Module(body=[], type_ignores=[])
    if isinstance(value, list):
        # ast.walk only iterates fields; the element types are irrelevant
        wrapper.body = [v for v in value if isinstance(v, ast.AST)]
    return wrapper
