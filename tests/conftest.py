"""Shared test helpers, the per-test watchdog, and the fuzz-seed plugin.

Every test runs under a watchdog (default 120 s, override with
``@pytest.mark.timeout(seconds)`` or the ``REPRO_TEST_TIMEOUT`` env var):
the test body executes in a worker thread, and if it does not finish in
time the test *fails* with a diagnostic instead of hanging CI — the failure
mode of a deadlocked simulated rank that slips past ``run_mpi``'s own
deadline.  ``timeout(0)`` disables the watchdog for one test.

Tests marked ``@pytest.mark.fuzz(seeds=N)`` that take a ``fuzz_seed``
argument are rerun across N schedule-fuzzer seeds (default 16).  Setting
``REPRO_FUZZ_SEED`` replays exactly one seed — the deterministic-repro
workflow: a CI matrix scans the seed range, a failure is reproduced locally
from its seed alone (see DESIGN.md, MPIsan).
"""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest

from repro.core import Communicator
from repro.mpi import FREE, CostModel, RunResult, run_mpi
from repro.core.runner import run as run_kamping

#: default per-test watchdog, generous enough for the slow (deadline) tests
DEFAULT_TEST_TIMEOUT = float(os.environ.get("REPRO_TEST_TIMEOUT", "120"))


@pytest.hookimpl(tryfirst=True)
def pytest_pyfunc_call(pyfuncitem):
    marker = pyfuncitem.get_closest_marker("timeout")
    limit = (float(marker.args[0]) if marker is not None and marker.args
             else DEFAULT_TEST_TIMEOUT)
    if limit <= 0:
        return None  # watchdog disabled: run in-process as usual
    testfunction = pyfuncitem.obj
    kwargs = {name: pyfuncitem.funcargs[name]
              for name in pyfuncitem._fixtureinfo.argnames}
    outcome: dict = {}

    def call():
        try:
            outcome["result"] = testfunction(**kwargs)
        except BaseException as exc:  # noqa: BLE001 - re-raised in the runner
            outcome["error"] = exc

    runner = threading.Thread(target=call, daemon=True,
                              name=f"test:{pyfuncitem.name}")
    runner.start()
    runner.join(limit)
    if runner.is_alive():
        pytest.fail(
            f"test exceeded the {limit:.0f}s watchdog — a simulated rank is "
            f"probably deadlocked (raise via @pytest.mark.timeout or "
            f"REPRO_TEST_TIMEOUT if the test is legitimately slow)",
            pytrace=False,
        )
    if "error" in outcome:
        raise outcome["error"]
    return True

def pytest_generate_tests(metafunc):
    """Parametrize ``fuzz_seed`` arguments across the fuzz-marker seed range."""
    if "fuzz_seed" not in metafunc.fixturenames:
        return
    marker = metafunc.definition.get_closest_marker("fuzz")
    count = int(marker.kwargs.get("seeds", 16)) if marker is not None else 4
    pinned = os.environ.get("REPRO_FUZZ_SEED", "").strip()
    seeds = [int(pinned)] if pinned else list(range(count))
    metafunc.parametrize("fuzz_seed", seeds)


#: rank counts exercised by most correctness tests (includes non-powers of 2)
SMALL_P = (1, 2, 3, 4, 7, 8)


def runp(fn, p, *, args=(), cost_model=None, deadline=60.0, **kwargs) -> RunResult:
    """Run ``fn(raw_comm, *args)`` on ``p`` ranks (raw runtime).

    Extra keyword arguments (``trace``, ``engine``, ``sanitize``,
    ``fuzz_seed``) pass through to :func:`repro.mpi.run_mpi`.
    """
    return run_mpi(fn, p, args=args, cost_model=cost_model, deadline=deadline,
                   **kwargs)


def runk(fn, p, *, args=(), cost_model=None, comm_class=Communicator,
         deadline=60.0, **kwargs) -> RunResult:
    """Run ``fn(kamping_comm, *args)`` on ``p`` ranks."""
    return run_kamping(fn, p, args=args, cost_model=cost_model,
                       comm_class=comm_class, deadline=deadline, **kwargs)


def argsort_bucket(keys, splitters):
    """The bucket step as a stable argsort of the ``upper_bound`` owners:
    the reference ``repro.plugins.sorter.bucket`` is checked against."""
    from repro.plugins.sorter import partition
    owners = np.searchsorted(splitters, keys, side="right")
    order, counts = partition(owners, len(splitters) + 1)
    return keys[order], counts


@pytest.fixture
def rng():
    return np.random.default_rng(0xBEEF)


@pytest.fixture
def lint_clean():
    """Assert a file, directory, or source string is reprolint-clean."""
    from repro.analysis.testing import lint_clean as _lint_clean

    return _lint_clean
