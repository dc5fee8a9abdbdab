"""Suffix-array algorithms on skewed, repetitive and motif-rich texts.

The inputs are built here: a Markov text (few successors per character), a
Fibonacci word (maximal common prefixes: the most doubling rounds) and a
DNA-like text with repeated motifs.  Character 0 stays free for sentinels.
"""

import numpy as np
import pytest

from repro.apps.suffix import pdc3, prefix_doubling_kamping, suffix_array_sequential
from repro.apps.suffix.common import local_block
from tests.conftest import runk
from tests.oracles import is_suffix_array


def markov_text(n, sigma=8, skew=4.0, seed=1):
    rng = np.random.default_rng((seed, 0x3A2))
    transition = rng.random((sigma, sigma)) ** skew
    transition /= transition.sum(axis=1, keepdims=True)
    out = np.empty(n, dtype=np.int64)
    state = int(rng.integers(0, sigma))
    for i in range(n):
        out[i] = state + 1
        state = int(rng.choice(sigma, p=transition[state]))
    return out


def repetitive_text(n, seed=1):
    a, b = [1], [1, 2]
    while len(b) < n:
        a, b = b, b + a
    return np.array(b[:n], dtype=np.int64)


def dna_text(n, motif_len=12, motif_rate=0.3, seed=1):
    rng = np.random.default_rng((seed, 0xD4A))
    motif = rng.integers(1, 5, size=motif_len)
    out = np.empty(n, dtype=np.int64)
    i = 0
    while i < n:
        if rng.random() < motif_rate and i + motif_len <= n:
            out[i: i + motif_len] = motif
            i += motif_len
        else:
            out[i] = int(rng.integers(1, 5))
            i += 1
    return out


CORPORA = {"markov": markov_text, "repetitive": repetitive_text,
           "dna": dna_text}


@pytest.mark.parametrize("corpus", list(CORPORA))
@pytest.mark.parametrize("algo", ["prefix_doubling", "dc3"])
def test_suffix_arrays_on_corpora(corpus, algo):
    text = CORPORA[corpus](220, seed=9)
    ref = suffix_array_sequential(text)
    assert is_suffix_array(text, ref)

    def main(comm):
        blk = local_block(text, comm.size, comm.rank)
        if algo == "prefix_doubling":
            return prefix_doubling_kamping(comm, blk, len(text))
        return pdc3(comm, blk, len(text))

    res = runk(main, 4)
    sa = np.concatenate(list(res.values))
    assert np.array_equal(sa, ref), (corpus, algo)


def test_repetitive_needs_more_doubling_rounds():
    """The adversarial text takes more rounds than random text."""
    from repro.apps.suffix import random_text

    def rounds_for(text):
        def main(comm):
            before = dict(comm.raw.machine.profile[comm.raw.world_rank])
            prefix_doubling_kamping(comm, local_block(text, comm.size, comm.rank),
                                    len(text))
            after = comm.raw.machine.profile[comm.raw.world_rank]
            return after["alltoallv"] - before.get("alltoallv", 0)

        return runk(main, 2).values[0]

    random_rounds = rounds_for(random_text(200, sigma=4, seed=1))
    repetitive_rounds = rounds_for(repetitive_text(200))
    assert repetitive_rounds > random_rounds
