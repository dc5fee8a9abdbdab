"""ULFM plugin: failure detection, revoke/shrink/agree, recovery (§V-B, Fig. 12)."""

import time

from repro.core import Communicator, extend, send_buf, op
from repro.mpi import SUM
from repro.plugins import MPIFailureDetected, MPIRevokedError, ULFM
from tests.conftest import runk

FTComm = extend(Communicator, ULFM)


def test_fig12_failure_recovery():
    def main(comm):
        if comm.rank == 1:
            comm.raw.kill_self()
        try:
            comm.allreduce_single(send_buf(1), op(SUM))
            return "unexpected"
        except MPIFailureDetected:
            if not comm.is_revoked:
                comm.revoke()
            comm = comm.shrink(generation=1)
            return ("recovered", comm.size,
                    comm.allreduce_single(send_buf(1), op(SUM)))

    res = runk(main, 4, comm_class=FTComm)
    for r in (0, 2, 3):
        assert res.values[r] == ("recovered", 3, 3)
    assert res.values[1] is None


def test_revoked_comm_raises_revoked_error():
    def main(comm):
        comm.revoke()
        try:
            comm.allreduce_single(send_buf(1), op(SUM))
        except MPIRevokedError:
            return "revoked"

    assert all(v == "revoked" for v in runk(main, 2, comm_class=FTComm).values)


def test_revoked_error_is_failure_subclass():
    assert issubclass(MPIRevokedError, MPIFailureDetected)


def test_agree_after_failure():
    def main(comm):
        if comm.rank == 2:
            comm.raw.kill_self()
        return comm.agree(True, generation="g1")

    res = runk(main, 3, comm_class=FTComm)
    assert res.values[0] is True and res.values[1] is True


def test_shrunk_comm_keeps_plugin_type():
    def main(comm):
        if comm.rank == 0:
            comm.raw.kill_self()
        while not comm.raw.failed_ranks():
            time.sleep(0.01)
        shrunk = comm.shrink(generation=5)
        return isinstance(shrunk, ULFM)

    res = runk(main, 3, comm_class=FTComm)
    assert res.values[1] is True


def test_double_shrink_default_generation_does_not_collide():
    """Repeated shrink() without an explicit generation must re-agree.

    The machine caches one rendezvous result per (comm, generation); before
    the auto-incrementing epoch, a second default shrink of the same
    communicator silently replayed the first agreement and kept the newly
    dead rank.  Kill rank 3, shrink, kill rank 2, shrink the *original*
    communicator again: the second shrink must see both deaths.
    """
    def main(comm):
        if comm.rank == 3:
            comm.raw.kill_self()
        while not comm.raw.failed_ranks():
            time.sleep(0.01)
        first = comm.shrink()
        if comm.rank == 2:
            comm.raw.kill_self()
        while len(comm.raw.failed_ranks()) < 2:
            time.sleep(0.01)
        second = comm.shrink()
        return first.size, second.size

    res = runk(main, 4, comm_class=FTComm)
    for r in (0, 1):
        assert res.values[r] == (3, 2)
    assert res.values[2] is None and res.values[3] is None


def test_explicit_generation_still_overrides():
    """Same explicit generation and survivors → the same communicator."""
    def main(comm):
        a = comm.shrink(generation="pinned")
        b = comm.shrink(generation="pinned")
        return a.raw.comm_id == b.raw.comm_id

    res = runk(main, 3, comm_class=FTComm)
    assert all(res.values)


def test_settled_agreements_leave_nothing_on_the_machine():
    """The machine's rendezvous state does not grow with the number of
    agreements: 500 sequential ``agree``s leave no record behind."""
    def main(comm):
        for i in range(500):
            assert comm.agree(True, generation=("g", i))
        comm.barrier()
        machine = comm.raw.machine
        assert not machine._shrink_arrivals
        return max(len(v) for v in vars(machine).values()
                   if isinstance(v, dict))

    res = runk(main, 3, comm_class=FTComm)
    assert all(size < 10 for size in res.values), res.values
