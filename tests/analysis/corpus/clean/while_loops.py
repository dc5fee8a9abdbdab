"""While loops and a match statement the checker cannot line up across
ranks: it gives up on the function instead of guessing, so none of these
yields a finding."""

import operator

from repro.core.named_params import op, root, send_buf, send_recv_buf


def converge(comm, residual):
    # the condition itself communicates: its trip count is agreed at run time
    while comm.allreduce_single(send_buf(residual), op(operator.add)) > 1.0:
        residual /= 2.0
    return residual


def heartbeat(comm, beat):
    # a statically true condition: the loop runs until the process ends,
    # so its trip count is unknowable
    while True:
        comm.barrier()
        beat()


def dispatch(comm, command):
    # match is not modelled; it communicates, so the checker gives up
    match command:
        case "sync":
            comm.barrier()
        case "share":
            comm.bcast(send_recv_buf([1.0]), root(0))
    return command
