"""Reductions beyond sum: max/min/prod through BOTH all-reduce datapaths.

The same (op, schedule, association order) must produce bit-identical
finals whether the reduction runs over PR 2's device-driven channel ring
or PR 7's triggered-MPI chain DAG — floats are not associative, so this
only holds because both paths reduce in the same fixed order.
"""

from __future__ import annotations

import pytest

from repro.collectives import CollectiveMode, build_communicator
from repro.collectives.algorithms import ring_all_reduce
from repro.collectives.schedules import REDUCE_OPS, _unpack, resolve_reduce_op
from repro.collectives.bench import vector
from repro.errors import BenchmarkError
from repro.mpi import MpiCommunicator, MpiConfig, iallreduce
from repro.cluster import build_extoll_cluster
from repro.sim import Simulator

OPS = sorted(REDUCE_OPS)


def test_op_table():
    assert set(OPS) == {"sum", "max", "min", "prod"}
    assert resolve_reduce_op("max")(2.0, 5.0) == 5.0
    assert resolve_reduce_op("prod")(3.0, 4.0) == 12.0
    with pytest.raises(BenchmarkError, match="unknown reduction op"):
        resolve_reduce_op("xor")


def _ring_finals(nodes, size, op, seed=23):
    sim = Simulator(seed=seed)
    cluster, comm = build_communicator(nodes, size,
                                       mode=CollectiveMode.POLL_ON_GPU,
                                       sim=sim)
    finals = {}

    def body(ctx, rc):
        out, _steps = yield from ring_all_reduce(
            ctx, rc, vector(rc.rank, rc.size, size), op=op)
        finals[rc.rank] = out

    handles = comm.launch(body)
    cluster.sim.run_until_complete(*handles, limit=1.0)
    return finals


def _mpi_finals(nodes, size, op, seed=23):
    sim = Simulator(seed=seed)
    cluster = build_extoll_cluster(sim=sim, num_nodes=nodes,
                                   topology="ring")
    comm = MpiCommunicator(cluster, config=MpiConfig(
        connectivity="ring", eager_threshold=256, slot_size=512))
    reqs = [iallreduce(comm, rank, vector(rank.rank, nodes, size), op=op)
            for rank in comm.ranks]
    comm.wait(*reqs)
    comm.check_async_errors()
    return {rank.rank: _unpack(reqs[rank.rank].data).tolist()
            for rank in comm.ranks}


@pytest.mark.parametrize("op", OPS)
def test_ring_all_reduce_matches_elementwise_reference(op):
    nodes, size = 4, 128
    finals = _ring_finals(nodes, size, op)
    vectors = [vector(r, nodes, size) for r in range(nodes)]
    combine = REDUCE_OPS[op]
    for col, column in enumerate(zip(*vectors)):
        expected = column[0]
        for v in column[1:]:
            expected = combine(expected, v)
        for rank in range(nodes):
            assert finals[rank][col] == pytest.approx(expected)


@pytest.mark.parametrize("op", OPS)
def test_both_datapaths_bit_exact(op):
    """The cross-check: channel ring vs triggered-MPI chains, exact ==."""
    nodes, size = 4, 128
    ring = _ring_finals(nodes, size, op)
    mpi = _mpi_finals(nodes, size, op)
    for rank in range(nodes):
        assert mpi[rank] == ring[rank]      # bitwise, not approx


def test_unknown_op_rejected_by_the_mpi_path():
    from repro.errors import MpiError
    with pytest.raises(MpiError, match="unknown reduction op"):
        _mpi_finals(4, 64, "median")
