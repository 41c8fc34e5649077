"""Benchmark driver for the collectives: build, run, time, verify.

One measurement launches the chosen operation on every rank for
``warmup + iterations`` rounds and reports

* a :class:`~repro.core.results.LatencyPoint` — elapsed time on rank 0 over
  the measured rounds, divided by ``iterations`` (one full operation),
* a :class:`~repro.core.results.BandwidthPoint` — total payload bytes all
  ranks injected during the measured rounds,
* the per-rank step count (``2*(N-1)`` for ring all-reduce — the scaling
  invariant), and
* a functional verdict: every rank's final result is checked against the
  exact expected value computed host-side.

When a :class:`~repro.obs.SpanTracer` is installed, rank 0 opens one
``phase``-category span per measured round, named after the operation.
Spans are opened/closed at the exact simulation times the latency
accumulator samples, so ``sum(span durations) == latency * iterations`` —
the reconciliation ``python -m repro collectives --trace`` enforces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Dict, Optional, Tuple

import numpy as np

from ..cluster import Cluster, build_extoll_cluster
from ..errors import BenchmarkError
from ..core.results import BandwidthPoint, LatencyPoint
from ..sim import NULL_SPAN, Simulator
from .algorithms import (all_gather, barrier, broadcast, halo_exchange,
                         rh_all_reduce, ring_all_reduce, tree_all_reduce)
from .comm import CollectiveMode, Communicator
from .schedules import F8, exact_match

#: Operations understood by :func:`run_collective` and the CLI.
OPS = ("barrier", "broadcast", "all-gather", "all-reduce", "all-reduce-rh",
       "all-reduce-tree", "halo")

#: Ops exchanging with hypercube partners: need all-pairs channels.
FULL_CONNECTIVITY_OPS = ("all-reduce-rh", "all-reduce-tree")


def op_connectivity(op: str) -> str:
    return "full" if op in FULL_CONNECTIVITY_OPS else "ring"


def op_max_payload(op: str, nodes: int, size: int) -> int:
    """Largest single message ``op`` sends, for slot sizing.  The ring
    schedules move one ``size``-byte chunk per step; recursive halving's
    first exchange is half the ``nodes * size`` vector; the tree moves
    the whole vector."""
    if op == "all-reduce-rh":
        return max(size, nodes * size // 2)
    if op == "all-reduce-tree":
        return nodes * size
    return size

#: The barrier circulates a fixed 8-byte token regardless of ``--size``.
_TOKEN_BYTES = 8


def _round8(n: int) -> int:
    return (n + 7) // 8 * 8


def pattern(rank: int, size: int) -> bytes:
    """A deterministic per-rank payload (distinct across ranks)."""
    return bytes((37 * rank + 11 * i + 5) % 251 for i in range(size))


def vector(rank: int, nodes: int, size: int) -> np.ndarray:
    """A deterministic per-rank float64 vector of ``nodes * size/8``
    elements (``size`` bytes travel per all-reduce step)."""
    length = nodes * (size // 8)
    return ((7 * rank + 1 + 3 * np.arange(length)) % 97).astype(F8)


@dataclass
class _Timing:
    start: float = 0.0
    end: float = 0.0


@dataclass(frozen=True)
class CollectiveResult:
    """One (operation, mode, topology, N, size) measurement."""

    op: str
    mode: str
    topology: str
    nodes: int
    size: int                 # payload bytes per point-to-point message
    iterations: int
    point: LatencyPoint       # latency = one full operation
    bandwidth: BandwidthPoint
    steps: int                # p2p sends per rank per operation (max)
    correct: bool

    @property
    def latency_us(self) -> float:
        return self.point.latency * 1e6


def build_communicator(num_nodes: int, size: int,
                       mode: CollectiveMode = CollectiveMode.POLL_ON_GPU,
                       topology: str = "auto", slots: int = 16,
                       sim: Optional[Simulator] = None,
                       reliable: bool = False,
                       reliability_config=None,
                       connectivity: str = "ring",
                       max_payload: Optional[int] = None,
                       ) -> Tuple[Cluster, Communicator]:
    """An EXTOLL cluster plus a communicator whose slots fit ``size``-byte
    payloads.  ``reliable`` arms the retransmission engines of
    :mod:`repro.faults` on every channel (required to survive an attached
    :class:`~repro.faults.FaultPlan`); ``connectivity="full"`` wires every
    rank pair instead of the ring edges; ``max_payload`` widens the slots
    beyond ``size`` for schedules whose messages grow with N (see
    :func:`op_max_payload`)."""
    if size < 8 or size % 8:
        raise BenchmarkError(
            f"collective payload size must be a positive multiple of 8, "
            f"got {size}")
    cluster = build_extoll_cluster(sim=sim, num_nodes=num_nodes,
                                   topology=topology)
    slot_size = max(64, _round8(max_payload or size) + 8)
    comm = Communicator(cluster, mode, slot_size=slot_size, slots=slots,
                        reliable=reliable,
                        reliability_config=reliability_config,
                        connectivity=connectivity)
    return cluster, comm


def _run_one(ctx, rc, op: str, size: int):
    """One operation on one rank; returns ``(result, steps)``."""
    if op == "barrier":
        steps = yield from barrier(ctx, rc)
        return None, steps
    if op == "broadcast":
        data = pattern(0, size) if rc.rank == 0 else None
        return (yield from broadcast(ctx, rc, data, root=0))
    if op == "all-gather":
        return (yield from all_gather(ctx, rc, pattern(rc.rank, size)))
    if op == "all-reduce":
        return (yield from ring_all_reduce(ctx, rc,
                                           vector(rc.rank, rc.size, size)))
    if op == "all-reduce-rh":
        return (yield from rh_all_reduce(ctx, rc,
                                         vector(rc.rank, rc.size, size)))
    if op == "all-reduce-tree":
        return (yield from tree_all_reduce(ctx, rc,
                                           vector(rc.rank, rc.size, size)))
    if op == "halo":
        return (yield from halo_exchange(ctx, rc,
                                         pattern(rc.rank, 2 * size), size))
    raise BenchmarkError(f"unknown collective op {op!r} "
                         f"(choose from: {', '.join(OPS)})")


def _verify(op: str, nodes: int, size: int, finals: Dict[int, object]) -> bool:
    """Exact host-side check of every rank's final result."""
    if sorted(finals) != list(range(nodes)):
        return False
    if op == "barrier":
        return all(v is None for v in finals.values())
    if op == "broadcast":
        root_data = pattern(0, size)
        return all(finals[r] == root_data for r in range(nodes))
    if op == "all-gather":
        expected = [pattern(k, size) for k in range(nodes)]
        return all(finals[r] == expected for r in range(nodes))
    if op in ("all-reduce", "all-reduce-rh", "all-reduce-tree"):
        expected = reduce(np.add, [vector(r, nodes, size)
                                   for r in range(nodes)])
        return all(exact_match(finals[r], expected) for r in range(nodes))
    if op == "halo":
        ok = True
        for r in range(nodes):
            left, right = finals[r]
            prev_interior = pattern((r - 1) % nodes, 2 * size)
            next_interior = pattern((r + 1) % nodes, 2 * size)
            ok = ok and left == prev_interior[-size:]
            ok = ok and right == next_interior[:size]
        return ok
    raise BenchmarkError(f"unknown collective op {op!r}")


def run_collective(cluster: Cluster, comm: Communicator, op: str, size: int,
                   iterations: int = 8, warmup: int = 2) -> CollectiveResult:
    """Run one measured collective; see the module docstring for what the
    returned :class:`CollectiveResult` carries."""
    if op not in OPS:
        raise BenchmarkError(f"unknown collective op {op!r} "
                             f"(choose from: {', '.join(OPS)})")
    if iterations < 1 or warmup < 0:
        raise BenchmarkError("need iterations >= 1 and warmup >= 0")
    total = iterations + warmup
    timing = _Timing()
    finals: Dict[int, object] = {}
    steps_seen: Dict[int, int] = {}
    trc = cluster.sim.tracer

    def body(ctx, rc):
        for i in range(1, total + 1):
            if rc.rank == 0 and i == warmup + 1:
                timing.start = ctx.sim.now
            measured = trc.enabled and rc.rank == 0 and i > warmup
            span = (trc.begin("phase", op, track="collective", iter=i)
                    if measured else NULL_SPAN)
            out, steps = yield from _run_one(ctx, rc, op, size)
            span.end()
            finals[rc.rank] = out
            steps_seen[rc.rank] = steps
        if rc.rank == 0:
            timing.end = ctx.sim.now

    handles = comm.launch(body)
    bench = (trc.begin("bench", f"collective:{op}", track="bench",
                       nodes=comm.size, size=size, mode=comm.mode.value,
                       iterations=iterations, warmup=warmup)
             if trc.enabled else NULL_SPAN)
    cluster.sim.run_until_complete(*handles,
                                   limit=cluster.sim.now + 600.0)
    bench.end()
    # A rank body that raised (e.g. a message overflowing its slot)
    # completes its handle as failed without unwinding the simulator —
    # surface it instead of reporting a half-empty measurement.
    for handle in handles:
        if not handle.ok:
            raise BenchmarkError(
                f"collective rank body failed: {handle.value!r}")

    elapsed = timing.end - timing.start
    point = LatencyPoint(size=size, latency=elapsed / iterations)
    msg_bytes = _TOKEN_BYTES if op == "barrier" else size
    if op in FULL_CONNECTIVITY_OPS:
        # Variable message sizes; both schedules move exactly
        # 2*(N-1)*V total bytes per operation (V = the full vector).
        moved = 2 * (comm.size - 1) * comm.size * size * iterations
    else:
        moved = sum(steps_seen.values()) * msg_bytes * iterations
    return CollectiveResult(
        op=op, mode=comm.mode.value, topology=cluster.topology,
        nodes=comm.size, size=size, iterations=iterations, point=point,
        bandwidth=BandwidthPoint(size=size, bytes_moved=moved,
                                 elapsed=elapsed),
        steps=max(steps_seen.values()),
        correct=_verify(op, comm.size, size, finals))


def sweep(ops, node_counts, sizes,
          mode: CollectiveMode = CollectiveMode.POLL_ON_GPU,
          topology: str = "auto", iterations: int = 8, warmup: int = 2):
    """The CLI's scaling sweep: a fresh cluster per (op, N, size) point so
    measurements never share warmed channels.  Yields CollectiveResults."""
    for op in ops:
        for nodes in node_counts:
            for size in sizes:
                cluster, comm = build_communicator(
                    nodes, size, mode, topology,
                    connectivity=op_connectivity(op),
                    max_payload=op_max_payload(op, nodes, size))
                yield run_collective(cluster, comm, op, size,
                                     iterations=iterations, warmup=warmup)


def render_results(results) -> str:
    """A fixed-width table of CollectiveResults."""
    header = ("op".ljust(17) + "mode".ljust(20) + "topo".ljust(8)
              + "N".rjust(3) + "size".rjust(7) + "steps".rjust(7)
              + "latency".rjust(12) + "MB/s".rjust(10) + "  ok")
    lines = [header, "-" * len(header)]
    for r in results:
        lines.append(
            r.op.ljust(17) + r.mode.ljust(20) + r.topology.ljust(8)
            + f"{r.nodes}".rjust(3) + f"{r.size}".rjust(7)
            + f"{r.steps}".rjust(7) + f"{r.latency_us:10.3f}us"
            + f"{r.bandwidth.mb_per_s:10.1f}"
            + ("   OK" if r.correct else "   FAIL"))
    return "\n".join(lines)
