"""The vectorized all-reduce data plane against scalar Python references.

Every combiner in ``REDUCE_OPS`` must give, element for element and bit
for bit, what the plain ``owned OP incoming`` expression gives: on NaN,
signed zeros, infinities and subnormals too.  ``_pack``/``_unpack`` must
be the ``struct`` little-endian float64 format, and the vector and byte
generators must equal the per-element formulas they replaced.
"""

from __future__ import annotations

import struct

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.collectives.schedules import F8, REDUCE_OPS, _pack, _unpack
from repro.collectives.bench import vector
from repro.fabrics.collective import fabric_vector
from repro.workloads.apps import expert_transform, grad_vector, payload

SCALAR = {
    "sum": lambda a, b: a + b,
    "max": lambda a, b: a if a >= b else b,
    "min": lambda a, b: a if a <= b else b,
    "prod": lambda a, b: a * b,
}

SPECIAL = [float("nan"), 0.0, -0.0, float("inf"), float("-inf"),
           5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0]

floats = st.one_of(st.sampled_from(SPECIAL),
                   st.floats(allow_nan=True, allow_infinity=True,
                             allow_subnormal=True))


def _bits(values) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


def test_scalar_references_cover_every_op():
    assert set(SCALAR) == set(REDUCE_OPS)


@settings(max_examples=300, deadline=None)
@given(pairs=st.lists(st.tuples(floats, floats), min_size=1, max_size=40),
       op=st.sampled_from(sorted(REDUCE_OPS)))
def test_combiner_matches_scalar_reference_bitwise(pairs, op):
    owned = [a for a, _ in pairs]
    incoming = [b for _, b in pairs]
    with np.errstate(all="ignore"):     # Python floats overflow silently
        got = REDUCE_OPS[op](np.array(owned, dtype=F8),
                             np.array(incoming, dtype=F8))
    want = [SCALAR[op](a, b) for a, b in pairs]
    assert np.asarray(got, dtype=F8).tobytes() == _bits(want)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(floats, max_size=64))
def test_pack_unpack_match_struct(values):
    blob = _pack(np.array(values, dtype=F8))
    assert blob == _bits(values)
    back = _unpack(blob)
    assert back.tobytes() == blob
    assert not back.flags.writeable
    assert _bits(back.tolist()) == _bits(
        struct.unpack(f"<{len(values)}d", blob))


@settings(max_examples=100, deadline=None)
@given(rank=st.integers(0, 600), nodes=st.integers(1, 64),
       length=st.integers(0, 300), req=st.integers(0, 10_000))
def test_generators_match_their_scalar_formulas(rank, nodes, length, req):
    assert fabric_vector(rank, nodes, length).tolist() == [
        float((13 * rank + 7 * i + 3) % 101) for i in range(length)]
    assert grad_vector(req, rank, length).tolist() == [
        float((req * 31 + 7 * rank + 3 * i + 1) % 97) for i in range(length)]
    size = 8 * length
    assert vector(rank, nodes, size).tolist() == [
        float((7 * rank + 3 * i + 1) % 97) for i in range(nodes * length)]
    base = (req * 131 + rank * 37 + nodes * 17) % 251
    data = payload(req, rank, nodes, length)
    assert data == bytes((base + 11 * i + 5) % 251 for i in range(length))
    assert expert_transform(data) == bytes((b * 2 + 1) % 251 for b in data)


def test_expert_transform_covers_every_byte_value():
    data = bytes(range(256))
    assert expert_transform(data) == bytes((b * 2 + 1) % 251 for b in data)
