"""Topology-aware collectives: numerics, closed forms, bit-exactness."""

import struct

import pytest

from repro.collectives.algorithms import REDUCE_OPS
from repro.errors import NetworkError
from repro.fabrics import build_topology, instantiate, run_collective
from repro.fabrics.collective import (ALGORITHMS, expected_phases,
                                      expected_steps, fabric_vector)
from repro.fabrics.topology import FabricConfig
from repro.sim import Simulator


def run(kind, algorithm, n=16, credits=None, elems=4, iterations=2, seed=1,
        op="sum"):
    sim = Simulator(seed=seed)
    inst = instantiate(sim, build_topology(kind, n),
                       FabricConfig(credits=credits))
    return run_collective(inst, algorithm, elems_per_rank=elems,
                          iterations=iterations, op=op)


def test_algorithms_registry():
    assert set(ALGORITHMS) == {"ring", "rh", "tree"}


@pytest.mark.parametrize("kind", ["fat-tree", "torus", "dragonfly"])
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_correct_and_at_closed_form(kind, algorithm):
    r = run(kind, algorithm)
    assert r.correct
    assert r.steps == expected_steps(algorithm, 16)
    assert r.phases == expected_phases(algorithm, 16)


@pytest.mark.parametrize("kind", ["fat-tree", "torus"])
def test_bit_exact_across_algorithms(kind):
    digests = {run(kind, algo).digest for algo in ALGORITHMS}
    assert len(digests) == 1


SCALAR_OPS = {
    "sum": lambda a, b: a + b,
    "max": lambda a, b: a if a >= b else b,
    "min": lambda a, b: a if a <= b else b,
    "prod": lambda a, b: a * b,
}


@pytest.mark.parametrize("op", sorted(REDUCE_OPS))
def test_every_op_bit_exact_across_algorithms_and_vs_scalar_fold(op):
    n, elems = 8, 2                     # the smallest torus
    digests = {algo: run("torus", algo, n=n, elems=elems, iterations=1,
                         op=op).digest
               for algo in ALGORITHMS}
    assert len(set(digests.values())) == 1, digests
    combine = SCALAR_OPS[op]
    expected = fabric_vector(0, n, n * elems).tolist()
    for rank in range(1, n):
        expected = [combine(a, b) for a, b in
                    zip(expected, fabric_vector(rank, n, n * elems).tolist())]
    assert digests["ring"] == struct.pack(f"<{len(expected)}d", *expected)


def test_unknown_op_is_a_network_error_listing_the_choices():
    with pytest.raises(NetworkError, match="unknown reduction op 'xor'") as e:
        run("torus", "ring", n=8, op="xor")
    assert all(op in str(e.value) for op in REDUCE_OPS)


def test_log_depth_schedules_beat_ring_at_16():
    ring = run("fat-tree", "ring").p50_time
    rh = run("fat-tree", "rh").p50_time
    assert rh < ring


def test_credits_disabled_is_bit_identical_to_uncontended():
    bare = run("torus", "ring", credits=None)
    generous = run("torus", "ring", credits=64)
    assert bare.times == generous.times
    assert bare.digest == generous.digest
    assert bare.stalls == 0 and generous.stalls == 0


def test_expected_steps_closed_forms():
    assert expected_steps("ring", 8) == 14          # 2*(N-1)
    assert expected_steps("rh", 8) == 6             # 2*log2 N
    assert expected_steps("tree", 8) == 3           # log2 N sends
    assert expected_phases("tree", 8) == 6          # 2*ceil(log2 N)
    assert expected_phases("ring", 5) == 8
