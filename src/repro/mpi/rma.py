"""One-sided communication (RMA): windows, put/get/accumulate, epochs.

The paper's conclusion plans to "extend the standard coverage"; one-sided
communication is the largest MPI chapter the core bindings do not cover yet
(boost-mpi3 supports it, §II).  This module is the raw substrate:

- :class:`RawWindow` — collective creation over one local array per rank;
- ``put`` / ``get`` / ``accumulate`` — direct access to a target rank's
  window memory *without involving the target's CPU* (the target's virtual
  clock does not advance; only the origin pays α + n·β);
- **fence** epochs (``MPI_Win_fence``): operations issued between two fences
  are globally visible after the closing fence;
- **passive target** locks (``MPI_Win_lock``/``unlock``) with shared or
  exclusive mode, serializing access per target.

Atomicity: ``accumulate`` is elementwise-atomic per target (as the standard
requires), implemented with one mutex per (window, target) pair.
"""

from __future__ import annotations

import threading
from typing import Any, Hashable, Optional

import numpy as np

from repro.mpi.errors import RawUsageError
from repro.mpi.ops import Op, SUM
from repro.mpi.waiting import Gate

_LOCK_STUCK = ("win_lock(target={0[1]}) exceeded the {deadline:.0f}s "
               "deadlock deadline")


class _WindowState:
    """Machine-shared state of one window."""

    def __init__(self, comm_size: int):
        self.arrays: dict[int, np.ndarray] = {}
        self.locks: dict[int, threading.RLock] = {
            r: threading.RLock() for r in range(comm_size)
        }
        #: passive-target locks, under ``mutex``: per target the ``(rank,
        #: exclusive)`` of its holders and, oldest first, the ``(gate, target,
        #: rank, exclusive)`` requests it has not been handed to yet
        self.mutex = threading.Lock()
        self.holders: dict[int, list[tuple]] = {r: [] for r in range(comm_size)}
        self.queue: dict[int, list[tuple]] = {r: [] for r in range(comm_size)}

    def grant(self, target: int) -> None:
        """Under ``mutex``: hand ``target``'s lock to the requests queued for
        it, oldest first, while it is free for the next one — nobody holds
        it, or the request and the holders are all shared."""
        held, queue = self.holders[target], self.queue[target]
        while queue:
            gate, _, rank, exclusive = queue[0]
            if held and (exclusive or held[0][1]):
                return
            held.append((rank, exclusive))
            del queue[0]
            gate.open()

    def withdraw(self, request: tuple) -> bool:
        """Take a request back out of its queue; ``False`` if the lock was
        handed to it in the meantime."""
        gate, target = request[:2]
        with self.mutex:
            if gate.opened:
                return False
            self.queue[target].remove(request)
            self.grant(target)  # it may have been what held the next up
            return True


class RawWindow:
    """One rank's handle of a collectively-created RMA window."""

    def __init__(self, comm, local: np.ndarray, win_id: Hashable):
        self.comm = comm
        if not isinstance(local, np.ndarray) or local.ndim != 1:
            raise RawUsageError("window memory must be a 1-D NumPy array")
        self.local = local
        machine = comm.machine
        registry = getattr(machine, "_rma_windows", None)
        if registry is None:
            registry = machine._rma_windows = {}
            machine._rma_lock = threading.Lock()
        with machine._rma_lock:
            state = registry.get(win_id)
            if state is None:
                state = registry[win_id] = _WindowState(comm.size)
        state.arrays[comm.rank] = local
        self._state = state
        comm.barrier()  # window creation is collective

    # -- epoch management ----------------------------------------------------

    def fence(self) -> None:
        """Close the current epoch: all issued operations become visible.

        Operations apply eagerly in this runtime, so the fence reduces to the
        synchronization (a barrier), which is the visibility guarantee the
        standard gives.
        """
        self.comm._count("win_fence")
        with self.comm._span("win_fence", peers="all"):
            self.comm._coll_algo("barrier").fn(self.comm)

    # -- passive target locks ----------------------------------------------------

    def lock(self, target: int, exclusive: bool = True) -> None:
        """``MPI_Win_lock``: begin a passive-target access epoch."""
        self.comm._count("win_lock")
        st = self._state
        comm = self.comm
        request = (Gate(), target, comm.rank, exclusive)
        with comm._span("win_lock", peers=(target,)):
            with st.mutex:
                st.queue[target].append(request)
                st.grant(target)
            # any member's failure ends it: the holder may never unlock
            comm.state.waits.park(request[0], range(comm.size),
                                  "win_lock pending", _LOCK_STUCK,
                                  st.withdraw, request)
        auditor = comm.machine.auditor
        if auditor.enabled:
            auditor.track_rma_lock(st, target, comm)

    def unlock(self, target: int) -> None:
        """``MPI_Win_unlock``: end the passive-target epoch."""
        self.comm._count("win_unlock")
        me = self.comm.rank
        st = self._state
        with self.comm._span("win_unlock", peers=(target,)), st.mutex:
            held = st.holders[target]
            mine = [h for h in held if h[0] == me]
            if not mine:
                raise RawUsageError(f"unlock({target}) without a matching lock")
            held.remove(mine[0])
            st.grant(target)
        auditor = self.comm.machine.auditor
        if auditor.enabled:
            auditor.release_rma_lock(st, target, self.comm)

    # -- one-sided data movement ------------------------------------------------

    def _charge(self, nbytes: int) -> None:
        clock = self.comm.clock
        model = self.comm.machine.cost_model
        clock.charge_overhead()
        clock.wait_until(clock.now + model.transfer_time(nbytes))

    def _target_array(self, target: int) -> np.ndarray:
        arr = self._state.arrays.get(target)
        if arr is None:
            raise RawUsageError(f"rank {target} exposes no window memory")
        return arr

    def put(self, data: np.ndarray, target: int, offset: int = 0) -> None:
        """Write ``data`` into the target's window at ``offset``."""
        self.comm._count("win_put")
        data = np.asarray(data)
        arr = self._target_array(target)
        if offset < 0 or offset + len(data) > len(arr):
            raise RawUsageError(
                f"put of {len(data)} elements at offset {offset} exceeds the "
                f"target window of size {len(arr)}"
            )
        with self.comm._span("win_put", peers=(target,), sent=int(data.nbytes)):
            with self._state.locks[target]:
                arr[offset: offset + len(data)] = data
            self._charge(data.nbytes)

    def get(self, target: int, offset: int = 0,
            count: Optional[int] = None) -> np.ndarray:
        """Read ``count`` elements from the target's window at ``offset``."""
        self.comm._count("win_get")
        arr = self._target_array(target)
        count = len(arr) - offset if count is None else count
        if offset < 0 or offset + count > len(arr):
            raise RawUsageError(
                f"get of {count} elements at offset {offset} exceeds the "
                f"target window of size {len(arr)}"
            )
        with self.comm._span("win_get", peers=(target,)) as sp:
            with self._state.locks[target]:
                out = arr[offset: offset + count].copy()
            self._charge(out.nbytes)
            sp.set(recvd=int(out.nbytes))
        return out

    def accumulate(self, data: np.ndarray, target: int, offset: int = 0,
                   op: Op = SUM) -> None:
        """Elementwise-atomic remote update (``MPI_Accumulate``)."""
        self.comm._count("win_accumulate")
        data = np.asarray(data)
        arr = self._target_array(target)
        if offset < 0 or offset + len(data) > len(arr):
            raise RawUsageError(
                f"accumulate of {len(data)} elements at offset {offset} "
                f"exceeds the target window of size {len(arr)}"
            )
        with self.comm._span("win_accumulate", peers=(target,),
                             sent=int(data.nbytes)):
            with self._state.locks[target]:
                arr[offset: offset + len(data)] = op(
                    arr[offset: offset + len(data)], data
                )
            self._charge(data.nbytes)

    def fetch_and_op(self, value: Any, target: int, offset: int,
                     op: Op = SUM) -> Any:
        """Atomic read-modify-write of one element (``MPI_Fetch_and_op``)."""
        self.comm._count("win_fetch_and_op")
        arr = self._target_array(target)
        with self.comm._span("win_fetch_and_op", peers=(target,),
                             sent=int(arr.itemsize)) as sp:
            with self._state.locks[target]:
                old = arr[offset].item()
                arr[offset] = op(arr[offset], value)
            self._charge(int(arr.itemsize))
            sp.set(recvd=int(arr.itemsize))
        return old

    def compare_and_swap(self, value: Any, compare: Any, target: int,
                         offset: int) -> Any:
        """Atomic CAS of one element (``MPI_Compare_and_swap``)."""
        self.comm._count("win_compare_and_swap")
        arr = self._target_array(target)
        with self.comm._span("win_compare_and_swap", peers=(target,),
                             sent=int(arr.itemsize)) as sp:
            with self._state.locks[target]:
                old = arr[offset].item()
                if old == compare:
                    arr[offset] = value
            self._charge(int(arr.itemsize))
            sp.set(recvd=int(arr.itemsize))
        return old

    def free(self) -> None:
        """Collectively release the window (``MPI_Win_free``)."""
        self.comm._count("win_free")
        with self.comm._span("win_free", peers="all"):
            self.comm._coll_algo("barrier").fn(self.comm)
