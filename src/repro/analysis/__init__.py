"""reprolint — static verification for the named-parameter MPI bindings.

Two layers over plain ``ast``:

- **Layer 1** (:mod:`repro.analysis.lint`): a per-call-site lint that runs
  the call-plan compiler's contract check before any process runs, plus
  dataflow checks for leaked non-blocking results, use-after-``move()``, and
  ``no_resize`` receive buffers fed by inferred counts.
- **Layer 2** (:mod:`repro.analysis.spmd`): an SPMD protocol checker that
  abstractly executes each ``comm``-taking function once per simulated rank
  and cross-checks the per-rank communication sequences for deadlocks.

Entry points: :func:`lint_source`, :func:`lint_file`, :func:`lint_paths`, and
the CLI ``python -m repro.analysis <paths>``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, List, Sequence, Union

from repro.analysis.findings import CODES, Code, Finding
from repro.analysis.lint import lint_module
from repro.analysis.spmd import check_module
from repro.analysis.suppress import Suppressions, collect_suppressions

__all__ = [
    "CODES",
    "Code",
    "Finding",
    "lint_source",
    "lint_file",
    "lint_paths",
]


def lint_source(source: str, path: str = "<string>", *,
                spmd: bool = True) -> List[Finding]:
    """All findings for one source text, suppressions applied, sorted."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding("RPL000", f"syntax error: {exc.msg}", path,
                        exc.lineno or 0, (exc.offset or 1) - 1)]
    findings = lint_module(tree, path)
    if spmd:
        findings.extend(check_module(tree, path))
    suppressions = collect_suppressions(source)
    kept = [f for f in findings
            if not suppressions.is_suppressed(f.code, f.line)]
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return kept


def lint_file(path: Union[str, Path], *, spmd: bool = True) -> List[Finding]:
    p = Path(path)
    try:
        source = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return [Finding("RPL000", f"cannot read file: {exc}", str(p), 0)]
    return lint_source(source, str(p), spmd=spmd)


def lint_paths(paths: Iterable[Union[str, Path]], *,
               spmd: bool = True) -> List[Finding]:
    """Lint files and directories (recursing into ``*.py``), findings sorted."""
    findings: List[Finding] = []
    for target in _expand(paths):
        findings.extend(lint_file(target, spmd=spmd))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings


def _expand(paths: Iterable[Union[str, Path]]) -> Sequence[Path]:
    out: List[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            out.extend(sorted(q for q in p.rglob("*.py") if q.is_file()))
        else:
            out.append(p)
    return out
