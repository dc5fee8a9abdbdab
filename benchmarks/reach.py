"""Which entry points reach each function of ``src/repro``.

Runs every user-facing entry point, then tier 1, each as its own Python
process with a call profiler installed at interpreter start, and prints one
line per top-level function or method of ``src/repro``::

    src/repro/mpi/autotune.py:AutoTuner.sweep entry

``entry`` means a non-test entry point called it, ``tests`` that only
tier 1 did, ``none`` that nothing did.  Lines are keyed by qualified name,
not line number, so the output diffs cleanly across refactors:
``python benchmarks/reach.py > change.txt``, the same file run in a clone
of the parent commit, then ``diff``.

The entry points: every example on both backends, the three fingerprint
scripts, ``pytest benchmarks/``, reprolint over the linted trees, the
autotune CLI as CI runs it and ``bench_layers/run.py --quick``.  A closure
or a comprehension counts for the top-level function that defines it.
Code that only a message race reaches (the process transport's
``_Transport.stash``) can read ``entry`` in one run and ``tests`` in the
next.

How the profiler reaches every process: a generated ``sitecustomize`` on
``PYTHONPATH`` installs it in each interpreter, so subprocesses (the
``bench_layers`` workloads, spawned process ranks) are covered too.  It is
a ``sys.setprofile`` / ``threading.setprofile`` hook on call events that
appends each first-seen code object of ``src/repro`` to the run's log with
one unbuffered ``os.write``: a forked process rank keeps the hook of the
thread that forked it but leaves through ``os._exit``, so nothing may wait
in a buffer.  Some tests and pytest-benchmark set their own profile
function or clear it with ``sys.setprofile(None)``, and restore what
``sys.getprofile()`` returned; both are wrapped, so such a hook runs beside
the recorder instead of ending it.  Timing assertions fail under a
profiler, so verdicts are reported on stderr and ignored: the script exits
0 unless a run recorded nothing at all.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: seconds before one entry point's run is abandoned (its reach still counts)
RUN_TIMEOUT = 1800

_SITECUSTOMIZE = """\
import sys
sys.path.insert(0, {here!r})
import reach
reach.install({log!r}, {src!r})
del sys.path[0], sys.modules["reach"]
"""


def install(log: str, src: str) -> None:
    """Record every first-seen code object under ``src`` into ``log``."""
    import threading

    fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    seen: set = set()
    prefix = src + os.sep

    def record(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code not in seen:
                seen.add(code)
                if code.co_filename.startswith(prefix):
                    os.write(fd, f"{code.co_filename}\t"
                                 f"{code.co_qualname}\n".encode())

    real_setprofile = sys.setprofile
    user = [None]  # the profile function the program itself set

    def hook():
        other = user[0]
        if other is None:
            return record

        def both(frame, event, arg):
            record(frame, event, arg)
            return other(frame, event, arg)
        return both

    def setprofile(fn):
        user[0] = fn
        real_setprofile(hook())

    sys.setprofile = setprofile
    sys.getprofile = lambda: user[0]
    real_setprofile(record)
    threading.setprofile(record)


def functions(path: Path) -> list[str]:
    """Qualified names of ``path``'s top-level functions and methods."""
    out: list[str] = []

    def walk(body, prefix: str) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append(prefix + node.name)
            elif isinstance(node, ast.ClassDef):
                walk(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.If, ast.Try)):
                walk(node.body, prefix)
                walk(node.orelse, prefix)

    walk(ast.parse(path.read_text(encoding="utf-8")).body, "")
    return list(dict.fromkeys(out))


def entry_points(scratch: Path) -> list[tuple[str, list[str], dict]]:
    """``(label, argv, extra environment)`` of every non-test entry point."""
    py = sys.executable
    runs = []
    for script in sorted((ROOT / "examples").glob("*.py")):
        for backend in ("thread", "process"):
            runs.append((f"examples/{script.name} [{backend}]",
                         [py, str(script)], {"REPRO_BACKEND": backend}))
    for name in ("raw_collectives_fingerprint", "ir_epoch_fingerprint",
                 "contract_fingerprint"):
        runs.append((name, [py, f"benchmarks/{name}.py"], {}))
    runs.append(("pytest benchmarks/",
                 [py, "-m", "pytest", "benchmarks/", "-q",
                  "-p", "no:cacheprovider"], {}))
    runs.append(("reprolint", [py, "-m", "repro.analysis", "examples/",
                               "src/repro/", "benchmarks/"], {}))
    store = str(scratch / "learned.json")
    cli = [py, "-m", "repro.mpi.autotune"]
    runs.append(("autotune sweep",
                 cli + ["sweep", "--ops", "allgather,allreduce,alltoallv",
                        "--p", "4,8", "--widths", "16,1024,65536",
                        "--out", store], {}))
    runs.append(("autotune inspect", cli + ["inspect", store], {}))
    runs.append(("autotune check", cli + ["check", store, "--baseline",
                                          "BENCH_coll_algorithms.json"], {}))
    runs.append(("bench_layers/run.py --quick",
                 [py, "bench_layers/run.py", "--quick"], {}))
    return runs


def _run(label: str, argv: list[str], extra: dict, scratch: Path,
         index: int) -> set[tuple[str, str]]:
    """Run one entry point under the recorder; its ``(path, qualname)`` set."""
    hookdir = scratch / f"hook{index}"
    hookdir.mkdir()
    log = scratch / f"reach{index}.log"
    (hookdir / "sitecustomize.py").write_text(_SITECUSTOMIZE.format(
        here=str(Path(__file__).resolve().parent), log=str(log),
        src=str(SRC)))
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(hookdir), str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    try:
        done = subprocess.run(argv, cwd=ROOT, env=env, timeout=RUN_TIMEOUT,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
        verdict = f"exit {done.returncode}"
    except subprocess.TimeoutExpired:
        verdict = f"timed out after {RUN_TIMEOUT} s"
    reached = set()
    if log.exists():
        for line in log.read_text(encoding="utf-8").splitlines():
            filename, qualname = line.split("\t")
            reached.add((filename, qualname.split(".<locals>.")[0]))
    print(f"reach: {label}: {verdict}, {len(reached)} functions",
          file=sys.stderr)
    return reached


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        scratch = Path(tmp)
        runs = entry_points(scratch)
        runs.append(("tier 1", [sys.executable, "-m", "pytest", "tests/",
                                "-q", "-p", "no:cacheprovider"], {}))
        entry: set = set()
        tests: set = set()
        silent = []
        for index, (label, argv, extra) in enumerate(runs):
            reached = _run(label, argv, extra, scratch, index)
            if not reached:
                silent.append(label)
            (tests if label == "tier 1" else entry).update(reached)

    counts = {"entry": 0, "tests": 0, "none": 0}
    for path in sorted(SRC.rglob("*.py")):
        for qualname in functions(path):
            key = (str(path), qualname)
            verdict = ("entry" if key in entry else
                       "tests" if key in tests else "none")
            counts[verdict] += 1
            print(f"{path.relative_to(ROOT)}:{qualname} {verdict}")
    print("reach: " + ", ".join(f"{n} {k}" for k, n in counts.items()),
          file=sys.stderr)
    if silent:
        print(f"reach: recorded nothing for {', '.join(silent)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
