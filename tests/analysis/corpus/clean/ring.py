"""A ring exchange: every send has exactly one matching recv."""

from repro.core.named_params import destination, send_buf, source, tag


def main(comm):
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    comm.send(send_buf([comm.rank]), destination(right), tag(3))
    return comm.recv(source(left), tag(3))


def either_payload(comm, payload, short):
    # a branch on data the checker cannot decide: both arms send alike, so
    # it follows them and still matches every send with a recv
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    if short:
        comm.send(send_buf(payload[:1]), destination(right), tag(3))
    else:
        comm.send(send_buf(payload), destination(right), tag(3))
    return comm.recv(source(left), tag(3))
