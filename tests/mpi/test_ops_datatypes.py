"""Reduction operations and low-level payload handling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mpi import BAND, BOR, BXOR, LAND, LOR, LXOR, MAX, MIN, PROD, SUM, user_op
from repro.mpi.datatypes import ensure_1d_array, payload_nbytes, snapshot


class TestOps:
    def test_builtin_identities(self):
        assert SUM.identity == 0
        assert PROD.identity == 1
        assert LAND.identity is True
        assert LOR.identity is False
        assert MAX.identity is None and MIN.identity is None

    def test_elementwise_on_arrays(self):
        a, b = np.array([1, 5]), np.array([4, 2])
        assert SUM(a, b).tolist() == [5, 7]
        assert MAX(a, b).tolist() == [4, 5]
        assert MIN(a, b).tolist() == [1, 2]
        assert PROD(a, b).tolist() == [4, 10]

    def test_bitwise_and_logical(self):
        assert BAND(0b1100, 0b1010) == 0b1000
        assert BOR(0b1100, 0b1010) == 0b1110
        assert BXOR(0b1100, 0b1010) == 0b0110
        assert bool(LAND(True, False)) is False
        assert bool(LOR(True, False)) is True
        assert bool(LXOR(True, True)) is False

    def test_user_op_metadata(self):
        op = user_op(lambda a, b: a - b, commutative=False, name="sub",
                     identity=0)
        assert not op.commutative
        assert op.name == "sub"
        assert op(10, 4) == 6


class TestPayloadSizes:
    def test_arrays_exact(self):
        assert payload_nbytes(np.zeros(10, dtype=np.int64)) == 80
        assert payload_nbytes(np.zeros(10, dtype=np.int32)) == 40

    def test_bytes_and_strings(self):
        assert payload_nbytes(b"abcd") == 4
        assert payload_nbytes("héllo") == len("héllo".encode())

    def test_scalars_and_none(self):
        assert payload_nbytes(7) == 8
        assert payload_nbytes(3.14) == 8
        assert payload_nbytes(None) == 0

    def test_numeric_lists(self):
        assert payload_nbytes([1, 2, 3]) == 24

    def test_objects_via_pickle(self):
        d = {"k": list(range(100))}
        assert payload_nbytes(d) > 100


class TestSnapshot:
    def test_array_snapshot_is_independent(self):
        a = np.array([1, 2])
        s = snapshot(a)
        a[0] = 99
        assert s[0] == 1

    def test_immutables_pass_through(self):
        for v in (b"x", "y", 1, 2.0, True, None):
            assert snapshot(v) is v

    def test_mutable_objects_deep_copied(self):
        d = {"xs": [1]}
        s = snapshot(d)
        d["xs"].append(2)
        assert s == {"xs": [1]}


class TestArrayHelpers:
    def test_ensure_1d_scalars_and_nd(self):
        assert ensure_1d_array(5).tolist() == [5]
        assert ensure_1d_array(np.ones((2, 3))).shape == (6,)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=-2**31, max_value=2**31), max_size=50))
def test_payload_nbytes_lists_proportional(xs):
    assert payload_nbytes(xs) == 8 * len(xs)
