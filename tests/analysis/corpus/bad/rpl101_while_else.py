# expect: RPL101
"""The loop condition is false on every rank, so every rank runs only the
``else`` arm, where rank 0 alone enters a bcast: deadlock."""

from repro.core.named_params import root, send_recv_buf


def main(comm):
    while comm.rank < 0:
        comm.barrier()
    else:
        if comm.rank == 0:
            comm.bcast(send_recv_buf([1.0]), root(0))
