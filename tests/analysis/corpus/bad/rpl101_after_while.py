# expect: RPL101
"""A loop of unknown trip count over a uniform barrier lines up on every
rank; the barrier only rank 0 enters after it does not."""


def main(comm, steps):
    while steps > 0:
        comm.barrier()
        steps -= 1
    if comm.rank == 0:
        comm.barrier()
