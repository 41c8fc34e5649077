"""One schedule, three transports, identical bytes.

Every all-reduce stack interprets the op scripts of
:mod:`repro.collectives.schedules`, so for ANY float64 input — NaN,
signed zeros and values whose sums round included — the msglib channel
``Communicator``, the triggered-MPI ``iallreduce`` and (at N=8, the
smallest N a fabric topology builds) ``FabricHost``s on a torus must
hand every rank the same result bytes.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import build_extoll_cluster
from repro.collectives import CollectiveMode, build_communicator
from repro.collectives.algorithms import (rh_all_reduce, ring_all_reduce,
                                          tree_all_reduce)
from repro.collectives.schedules import F8, REDUCE_OPS, SCHEDULES
from repro.fabrics import build_topology, instantiate
from repro.fabrics.collective import ALGORITHMS, FabricHost
from repro.fabrics.topology import FabricConfig
from repro.mpi import MpiCommunicator, MpiConfig, iallreduce
from repro.sim import Simulator

CHANNEL = {"ring": ring_all_reduce, "rh": rh_all_reduce,
           "tree": tree_all_reduce}


def channel_bytes(algorithm, op, inputs):
    n = len(inputs)
    cluster, comm = build_communicator(
        n, 8 * len(inputs[0]), mode=CollectiveMode.POLL_ON_GPU,
        sim=Simulator(seed=3), connectivity="full")
    finals = {}

    def body(ctx, rc):
        out, _steps = yield from CHANNEL[algorithm](
            ctx, rc, inputs[rc.rank], op=op)
        finals[rc.rank] = np.array(out, dtype=F8).tobytes()

    cluster.sim.run_until_complete(*comm.launch(body), limit=1.0)
    return [finals[r] for r in range(n)]


def mpi_bytes(algorithm, op, inputs):
    n = len(inputs)
    cluster = build_extoll_cluster(sim=Simulator(seed=3), num_nodes=n,
                                   topology="pair" if n == 2 else "ring")
    slot = max(512, 8 * len(inputs[0]) + 64)
    comm = MpiCommunicator(cluster, config=MpiConfig(
        connectivity="full", eager_threshold=slot - 64, slot_size=slot))
    reqs = [iallreduce(comm, rank, inputs[rank.rank], op=op,
                       algorithm=algorithm) for rank in comm.ranks]
    comm.wait(*reqs)
    comm.check_async_errors()
    return [req.data for req in reqs]


def fabric_bytes(algorithm, op, inputs):
    n = len(inputs)
    sim = Simulator(seed=3)
    instance = instantiate(sim, build_topology("torus", n), FabricConfig())
    hosts = [FabricHost(instance, r) for r in range(n)]
    finals = {}

    def rank_body(rank):
        out, _sends = yield from hosts[rank].run(ALGORITHMS[algorithm](
            rank, n, inputs[rank], REDUCE_OPS[op]))
        finals[rank] = out.tobytes()

    sim.run_until_complete(*[sim.process(rank_body(r)) for r in range(n)])
    return [finals[r] for r in range(n)]


SPECIALS = st.sampled_from([0.0, -0.0, float("nan"), float("inf"),
                            float("-inf"), 1e308, -1e-308, 0.1])


@st.composite
def cases(draw):
    n = draw(st.sampled_from([2, 4, 8]))
    length = n * draw(st.integers(1, 4))
    element = st.one_of(SPECIALS, st.floats(allow_nan=True,
                                            allow_infinity=True))
    inputs = [np.array(draw(st.lists(element, min_size=length,
                                     max_size=length)), dtype=F8)
              for _ in range(n)]
    return (draw(st.sampled_from(sorted(SCHEDULES))),
            draw(st.sampled_from(sorted(REDUCE_OPS))), inputs)


#: An N=8 case, so every run crosses the fabric stack at least once.
_N8 = [np.array([0.1 * r, -0.0, float("nan"), 1e308, r, -r, 0.0, 3.0],
                dtype=F8) for r in range(8)]


@settings(max_examples=40, deadline=None)
@given(cases())
@example(("rh", "sum", _N8))
@example(("tree", "max", _N8))
def test_every_transport_hands_every_rank_the_same_bytes(case):
    algorithm, op, inputs = case
    # Arbitrary inputs overflow and meet inf - inf; that is the point.
    with np.errstate(over="ignore", invalid="ignore"):
        channel = channel_bytes(algorithm, op, inputs)
        assert mpi_bytes(algorithm, op, inputs) == channel
        if len(inputs) == 8:
            assert fabric_bytes(algorithm, op, inputs) == channel
