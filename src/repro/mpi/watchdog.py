"""Stack dumps for hung ranks.

A hang ends in a :class:`~repro.mpi.errors.RawDeadlockError`: a wait past
the machine's ``deadline``, or a run past its bound, the deadline plus the
backends' ``RUN_GRACE``.  Where one is caught — a thread backend's rank
worker, a cluster's rank loop, a process rank's child — :func:`attach_stacks`
adds the stacks of the rank threads visible there, so the error shows where
each stuck rank stood.  :func:`sys._current_frames` sees only the threads of
the calling process: a thread rank sees all its peers, a process rank itself.
"""

from __future__ import annotations

import sys
import threading
import traceback
from typing import Iterable

from repro.mpi.errors import RawDeadlockError


def thread_stacks(threads: Iterable[threading.Thread]) -> dict[str, str]:
    """Formatted stacks of the given threads that are still alive.

    Returns ``{thread name: multi-line stack}``, innermost frame last (the
    usual traceback orientation).  Threads that finished between the caller's
    liveness check and the frame snapshot are silently absent.
    """
    frames = sys._current_frames()
    stacks: dict[str, str] = {}
    for t in threads:
        if not t.is_alive():
            continue
        frame = frames.get(t.ident)
        if frame is None:
            continue
        stacks[t.name] = "".join(traceback.format_stack(frame)).rstrip()
    return stacks


def format_stacks(stacks: dict[str, str]) -> str:
    """Render a stack-dump dict as one indented report block."""
    if not stacks:
        return "  (no rank threads alive at expiry)"
    blocks = []
    for name in sorted(stacks):
        body = "\n".join(f"    {line}" for line in stacks[name].splitlines())
        blocks.append(f"  --- {name} ---\n{body}")
    return "\n".join(blocks)


def attach_stacks(exc: BaseException,
                  threads: Iterable[threading.Thread]) -> str:
    """If the calling thread caught ``exc``, a :class:`RawDeadlockError`,
    add to its ``stacks`` those of ``threads`` still alive — the caller's
    own as ``exc`` unwound it — and return them as a report block; else
    return ``""``."""
    if not isinstance(exc, RawDeadlockError):
        return ""
    exc.stacks.update(thread_stacks(threads))
    exc.stacks[threading.current_thread().name] = "".join(
        traceback.format_tb(exc.__traceback__)).rstrip()
    return f"\nPer-rank stacks:\n{format_stacks(exc.stacks)}"
