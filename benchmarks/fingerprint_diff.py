"""The three behaviour fingerprints of a commit against the working tree.

A behaviour-preserving change is one whose fingerprints —
``raw_collectives_fingerprint`` (raw calls), ``ir_epoch_fingerprint``
(rewrite passes) and ``contract_fingerprint`` (named-parameter contract) —
print the same text before and after it.  This script exports ``BASE``'s
committed files into a temporary directory (``git archive``), runs the
working tree's copy of each script there and in the working tree, each time
with ``PYTHONPATH=src`` of that tree, and prints per script either
``identical`` or a unified diff of the two outputs::

    python benchmarks/fingerprint_diff.py HEAD~1
    python benchmarks/fingerprint_diff.py main --nodes

``--nodes`` passes ``--nodes`` to ``ir_epoch_fingerprint``, which then prints
the hashed node lines too, to locate a difference.  The exit status is
non-zero only when a script fails in either tree; a difference is reported,
not judged.
"""

from __future__ import annotations

import argparse
import difflib
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ("raw_collectives_fingerprint", "ir_epoch_fingerprint",
           "contract_fingerprint")


def export(base: str, into: Path) -> None:
    """Write the files ``base`` commits into ``into``."""
    archive = subprocess.run(["git", "archive", "--format=tar", base],
                             cwd=ROOT, check=True, capture_output=True).stdout
    # the "data" filter exists from Python 3.10.12 / 3.11.4 on
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, **safe)


def fingerprint(tree: Path, script: str, args: list[str]
                ) -> tuple[str, str | None]:
    """``(stdout, error)`` of the working tree's ``script`` run on ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / f"{script}.py"), *args],
        cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode:
        return proc.stdout, f"exit {proc.returncode}: {proc.stderr[-2000:]}"
    return proc.stdout, None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", help="commit to compare the working tree to")
    parser.add_argument("--nodes", action="store_true",
                        help="print ir_epoch_fingerprint's node lines too")
    opts = parser.parse_args(argv)
    failed = False
    with tempfile.TemporaryDirectory(prefix="fingerprint-base-") as tmp:
        base = Path(tmp)
        export(opts.base, base)
        for script in SCRIPTS:
            args = (["--nodes"] if opts.nodes
                    and script == "ir_epoch_fingerprint" else [])
            before, err_before = fingerprint(base, script, args)
            after, err_after = fingerprint(ROOT, script, args)
            for tree, err in ((opts.base, err_before),
                              ("working tree", err_after)):
                if err:
                    failed = True
                    print(f"{script}: failed on {tree}: {err}")
            if err_before or err_after:
                continue
            if before == after:
                print(f"{script}: identical")
                continue
            print(f"{script}: differs")
            sys.stdout.writelines(difflib.unified_diff(
                before.splitlines(keepends=True),
                after.splitlines(keepends=True),
                fromfile=f"{script} @ {opts.base}",
                tofile=f"{script} @ working tree"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
