"""Packet-level collectives over a fabric: ring vs tree vs halving.

Each rank is a :class:`FabricHost` — one process-level participant that
sends tagged messages through its fabric attachment and demultiplexes
arrivals into per-``(src, tag)`` queues (adaptive routing may reorder
packets between the same pair, so matching is by tag, never arrival
order).  :meth:`FabricHost.run` interprets the op scripts of
:mod:`repro.collectives.schedules`: payloads are real packed float64
vectors and every reduction applies ``op(owned, incoming)`` over one
slice per message in the schedule's fixed order, so with integer-valued
inputs all three algorithms produce **bit-exact** identical results — the
sweep's cross-algorithm verdict.

The causal story: when the run's tracer wants the ``causal`` category,
every message carries ``meta["caddr"] = (src, dst, msg_seq)`` and the
stack emits ``snd -> [hop.crd ->] inj -> hop* -> eject -> rcd``; the
extended DAG rules chain those per address so ``critpath`` walks through
fabric hops and blames ``blocked-on-credit`` where a credit gate stalled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Dict, List, Tuple

import numpy as np

from ..collectives.schedules import (F8, SCHEDULES, _pack, check_allreduce,
                                     exact_match, expected_phases,
                                     expected_steps, resolve_reduce_op)
from ..errors import NetworkError
from ..sim import AllOf, Simulator, Store
from ..network.packet import Packet, PacketKind
from .routing import FabricInstance

#: Fabric message header (routing + tag + transport bookkeeping).
FABRIC_HEADER = 32

#: The all-reduce schedules :func:`run_collective` drives, by name.
ALGORITHMS = SCHEDULES


def fabric_vector(rank: int, n: int, elems: int) -> np.ndarray:
    """Deterministic integer-valued payload: exact under every reduction
    order, so bit-exactness across algorithms is meaningful."""
    return ((13 * rank + 3 + 7 * np.arange(elems)) % 101).astype(F8)


class _ArrivalQueue(Store):
    """One rank's queue of arrivals from one ``(src, tag)``."""

    def __init__(self, sim: Simulator, node_id: int,
                 key: Tuple[int, int]) -> None:
        super().__init__(sim)
        self._node_id = node_id
        self._key = key

    def _default_name(self) -> str:
        return f"fabhost{self._node_id}.q{self._key}"


class FabricHost:
    """One rank's attachment to the fabric: tagged send/recv + demux."""

    def __init__(self, instance: FabricInstance, node_id: int) -> None:
        self.instance = instance
        self.sim: Simulator = instance.sim
        self.node_id = node_id
        self.attachment = instance.attachment(node_id)
        self._queues: Dict[Tuple[int, int], Store] = {}
        self._msg_seq = 0
        self._sent: Dict[int, int] = {}         # dst -> messages sent
        self._received: Dict[int, int] = {}     # src -> messages taken
        self.packets_sent = 0
        self.packets_received = 0
        self.sim.process(self._demux(),
                         name=f"fabhost{node_id}.demux")

    def _queue(self, src: int, tag: int) -> Store:
        key = (src, tag)
        store = self._queues.get(key)
        if store is None:
            store = _ArrivalQueue(self.sim, self.node_id, key)
            self._queues[key] = store
        return store

    def _demux(self):
        trc = self.sim.tracer
        while True:
            packet = yield self.attachment.recv()
            self.packets_received += 1
            if trc.enabled and trc.wants("causal"):
                caddr = packet.meta.get("caddr")
                if caddr is not None:
                    trc.flow_event("eject", f"n{self.node_id}.fab",
                                   addr=caddr, src=packet.src_node)
            yield self._queue(packet.src_node,
                              packet.meta.get("tag", 0)).put(packet)

    # -- messaging ----------------------------------------------------------
    def send(self, dst: int, payload: bytes, tag: int = 0):
        """Process fragment: inject one tagged message toward ``dst``;
        returns once the first hop has fully serialized it."""
        seq = self._msg_seq
        self._msg_seq += 1
        meta = {"tag": tag, "fid": seq}
        trc = self.sim.tracer
        causal = trc.enabled and trc.wants("causal")
        if causal:
            caddr = (self.node_id, dst, seq)
            meta["caddr"] = caddr
            trc.flow_event("snd", f"n{self.node_id}", addr=caddr,
                           dst=dst, bytes=len(payload), tag=tag)
        packet = Packet(PacketKind.FABRIC, self.node_id, dst,
                        FABRIC_HEADER, payload, meta)
        yield from self.attachment.send(packet)
        self.packets_sent += 1
        if causal:
            trc.flow_event("inj", f"n{self.node_id}", addr=meta["caddr"])

    def recv(self, src: int, tag: int = 0):
        """Process fragment: the next message from ``src`` with ``tag``;
        returns its payload bytes."""
        trc = self.sim.tracer
        causal = trc.enabled and trc.wants("causal")
        if causal:
            trc.flow_event("rcv", f"n{self.node_id}", src=src, tag=tag)
        packet = yield self._queue(src, tag).get()
        if causal and packet.meta.get("caddr") is not None:
            trc.flow_event("rcd", f"n{self.node_id}",
                           addr=packet.meta["caddr"], via="poll",
                           bytes=len(packet.payload))
        return packet.payload

    def run(self, ops):
        """Process fragment: interpret one rank's op script; returns
        ``(result, sends)``.  The k-th message of an ordered ``(src,
        dst)`` pair carries tag k and a recv takes the k-th message from
        its peer, so schedules match exactly under any reordering and
        across iterations.  Compute costs nothing: the fabric model
        charges none."""
        send, recv = self.send, self.recv
        sent, received = self._sent, self._received
        sends = 0
        value = None
        while True:
            try:
                op = ops.send(value)
            except StopIteration as stop:
                return stop.value, sends
            kind = op[0]
            value = None
            if kind == "send":
                peer = op[1]
                tag = sent.get(peer, 0)
                sent[peer] = tag + 1
                yield from send(peer, op[2], tag)
                sends += 1
            elif kind == "recv":
                peer = op[1]
                tag = received.get(peer, 0)
                received[peer] = tag + 1
                value = yield from recv(peer, tag)
            elif kind != "compute":
                raise NetworkError(f"unknown op {kind!r}")


@dataclass
class CollectiveResult:
    """One (topology, algorithm, N) measurement."""

    topology: str
    algorithm: str
    n: int
    elems: int
    times: List[float]                  # per-iteration sim seconds
    steps: int                          # max per-rank message count
    phases: int
    packets: int                        # fabric-wide, incl. relays
    digest: bytes                       # packed final vector (rank 0)
    correct: bool
    stalls: int = 0
    stall_time: float = 0.0
    events: int = 0
    link_packets: dict = field(default_factory=dict)

    @property
    def p50_time(self) -> float:
        times = sorted(self.times)
        return times[len(times) // 2]

    @property
    def p50_step_time(self) -> float:
        return self.p50_time / max(1, self.phases)


def run_collective(instance: FabricInstance, algorithm: str,
                   elems_per_rank: int = 4, op: str = "sum",
                   iterations: int = 3) -> CollectiveResult:
    """Drive one all-reduce algorithm over an instantiated fabric.

    Emits ``req``/``rank`` brackets per iteration when the simulator's
    tracer wants causal flow events, so ``critpath`` can reconcile the
    measured per-iteration times exactly.
    """
    n = instance.n
    elems = elems_per_rank * n
    schedule = check_allreduce(algorithm, n, elems, NetworkError)
    reduce_op = resolve_reduce_op(op, NetworkError)
    sim = instance.sim
    hosts = [FabricHost(instance, r) for r in range(n)]
    inputs = [fabric_vector(r, n, elems) for r in range(n)]
    # Rank by rank, left to right with the same combiner: a pairwise
    # reduction (np.sum) would change the association order.
    expected = reduce(reduce_op, inputs)
    finals: Dict[int, np.ndarray] = {}
    steps: Dict[int, int] = {}
    times: List[float] = []

    def rank_body(rank: int, it: int):
        trc = sim.tracer
        causal = trc.enabled and trc.wants("causal")
        if causal:
            trc.flow_event("rank.begin", f"n{rank}", req=it)
        out, nsteps = yield from hosts[rank].run(
            schedule(rank, n, inputs[rank], reduce_op))
        finals[rank] = out
        steps[rank] = max(steps.get(rank, 0), nsteps)
        if causal:
            trc.flow_event("rank.end", f"n{rank}", req=it)

    def driver():
        trc = sim.tracer
        causal = trc.enabled and trc.wants("causal")
        for it in range(iterations):
            t0 = sim.now
            if causal:
                trc.flow_event("req.begin", "driver", req=it)
            procs = [sim.process(rank_body(r, it),
                                 name=f"coll.it{it}.r{r}")
                     for r in range(n)]
            # AllOf instead of yielding each process: joining hundreds of
            # already-finished processes one by one would recurse through
            # Process._resume once per join.
            yield AllOf(sim, procs)
            times.append(sim.now - t0)
            if causal:
                trc.flow_event("req.end", "driver", req=it)

    # run_until_complete, not run(): the demux/router pumps never exit,
    # so a drained heap with them alive is normal termination here.
    sim.run_until_complete(sim.process(driver(), name="coll.driver"))
    correct = all(exact_match(finals[r], expected) for r in range(n))
    flow = instance.flow_stats()
    return CollectiveResult(
        topology=instance.topology.kind, algorithm=algorithm, n=n,
        elems=elems, times=times, steps=max(steps.values()),
        phases=expected_phases(algorithm, n),
        packets=sum(h.packets_sent for h in hosts), digest=_pack(finals[0]),
        correct=correct, stalls=int(flow["stalls"]),
        stall_time=flow["stall_time"], events=sim.events_processed,
        link_packets=instance.link_packets())


__all__ = ["ALGORITHMS", "FABRIC_HEADER", "CollectiveResult", "FabricHost",
           "expected_phases", "expected_steps", "fabric_vector",
           "run_collective"]
