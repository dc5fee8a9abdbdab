"""``bench_layers`` — the repository's wall-clock benchmark.

Every workload runs the same work twice in interleaved batches: through the
topmost layer of the stack ("wrapped") and as hand-written ``RawComm`` calls
("raw") — the paper's §III-H methodology applied to our own layers, on the
wall clock instead of the virtual one.  ``run.py`` is the command; see
``README.md`` for the workloads, the metrics and how they interact.

Nothing in here is imported by ``src/`` and nothing in ``src/`` is
instrumented: spans and counts are taken from these files, around the calls
into each layer's public functions.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: root of the checkout this benchmark measures (the directory above us)
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_sources() -> None:
    """Make ``import repro`` resolve to *this* checkout's ``src/``.

    The benchmark measures the tree it sits in, never an installed copy: a
    checkout without ``src/repro`` is an error, not a reason to fall back to
    whatever ``repro`` happens to be importable.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"bench_layers: no program to measure at {SRC}/repro")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    origin = Path(repro.__file__).resolve()
    if SRC not in origin.parents:
        raise SystemExit(
            f"bench_layers: 'repro' resolved to {origin}, outside {SRC}")
