"""Packet-level collectives over a fabric: ring vs tree vs halving.

Each rank is a :class:`FabricHost` — one process-level participant that
sends tagged messages through its fabric attachment and demultiplexes
arrivals into per-``(src, tag)`` queues (adaptive routing may reorder
packets between the same pair, so matching is by tag, never arrival
order).  Payloads are real packed float64 vectors and every reduction
applies ``op(owned, incoming)`` over one slice per message in a fixed
schedule order (the shared data plane of
:mod:`repro.collectives.algorithms`), so with integer-valued inputs all
three algorithms produce **bit-exact** identical results — the sweep's
cross-algorithm verdict.

The causal story: when the run's tracer wants the ``causal`` category,
every message carries ``meta["caddr"] = (src, dst, msg_seq)`` and the
stack emits ``snd -> [hop.crd ->] inj -> hop* -> eject -> rcd``; the
extended DAG rules chain those per address so ``critpath`` walks through
fabric hops and blames ``blocked-on-credit`` where a credit gate stalled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Callable, Dict, List, Tuple

import numpy as np

from ..collectives.algorithms import (F8, _pack, _unpack, exact_match,
                                      resolve_reduce_op)
from ..errors import NetworkError
from ..sim import AllOf, Simulator, Store
from ..network.packet import Packet, PacketKind
from .routing import FabricInstance

#: Fabric message header (routing + tag + transport bookkeeping).
FABRIC_HEADER = 32


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


# -- schedules ------------------------------------------------------------------------
def _require_pow2(n: int, name: str) -> None:
    if n & (n - 1) or n < 2:
        raise NetworkError(f"{name} needs a power-of-two rank count, "
                           f"got {n}")


def ring_all_reduce(host: FabricHost, n: int, rank: int,
                    values: np.ndarray, op: Callable, tag0: int):
    """PR 2's schedule at packet level: reduce-scatter then allgather
    around the ring, ``2(N-1)`` steps, one chunk per message."""
    if len(values) % n:
        raise NetworkError("vector length must divide by the rank count")
    out = np.array(values, dtype=F8)
    chunks = out.reshape(n, -1)         # row i is a view of chunk i
    nxt, prv = (rank + 1) % n, (rank - 1) % n
    steps = 0
    for s in range(n - 1):
        send_idx = (rank - s) % n
        recv_idx = (rank - s - 1) % n
        yield from host.send(nxt, _pack(chunks[send_idx]), tag0 + s)
        steps += 1
        incoming = _unpack((yield from host.recv(prv, tag0 + s)))
        chunks[recv_idx] = op(chunks[recv_idx], incoming)
    for s in range(n - 1):
        send_idx = (rank + 1 - s) % n
        recv_idx = (rank - s) % n
        yield from host.send(nxt, _pack(chunks[send_idx]),
                             tag0 + (n - 1) + s)
        steps += 1
        chunks[recv_idx] = _unpack(
            (yield from host.recv(prv, tag0 + (n - 1) + s)))
    return out, steps


def rh_all_reduce(host: FabricHost, n: int, rank: int,
                  values: np.ndarray, op: Callable, tag0: int):
    """Recursive halving reduce-scatter + recursive doubling allgather:
    ``2*log2(N)`` phases, message size halving then doubling."""
    _require_pow2(n, "recursive halving")
    if len(values) % n:
        raise NetworkError("vector length must divide by the rank count")
    out = np.array(values, dtype=F8)
    steps = 0
    lo, hi = 0, len(values)             # my active window
    dist = n // 2
    phase = 0
    while dist >= 1:
        partner = rank ^ dist
        mid = (lo + hi) // 2
        if rank & dist:                 # I keep the upper half
            send_lo, send_hi, keep_lo, keep_hi = lo, mid, mid, hi
        else:
            send_lo, send_hi, keep_lo, keep_hi = mid, hi, lo, mid
        yield from host.send(partner, _pack(out[send_lo:send_hi]),
                             tag0 + phase)
        steps += 1
        incoming = _unpack((yield from host.recv(partner, tag0 + phase)))
        out[keep_lo:keep_hi] = op(out[keep_lo:keep_hi], incoming)
        lo, hi = keep_lo, keep_hi
        dist //= 2
        phase += 1
    dist = 1
    while dist < n:                     # mirror: allgather doubling
        partner = rank ^ dist
        yield from host.send(partner, _pack(out[lo:hi]), tag0 + phase)
        steps += 1
        incoming = _unpack((yield from host.recv(partner, tag0 + phase)))
        if rank & dist:                 # partner held the half below mine
            out[2 * lo - hi:lo] = incoming
            lo = 2 * lo - hi
        else:
            out[hi:2 * hi - lo] = incoming
            hi = 2 * hi - lo
        dist *= 2
        phase += 1
    return out, steps


def tree_all_reduce(host: FabricHost, n: int, rank: int,
                    values: np.ndarray, op: Callable, tag0: int):
    """Binomial-tree reduce to rank 0 + binomial broadcast back:
    ``2*ceil(log2 N)`` phases of full-vector messages."""
    out = np.asarray(values, dtype=F8)
    steps = 0
    mask = 1
    while mask < n:                     # reduce toward rank 0
        if rank & mask:
            yield from host.send(rank ^ mask, _pack(out), tag0)
            steps += 1
            mask <<= 1
            break                       # sent my subtree up; now wait
        src = rank | mask
        if src < n:
            incoming = _unpack((yield from host.recv(src, tag0)))
            out = op(out, incoming)
        mask <<= 1
    while mask < n:
        mask <<= 1
    # broadcast back down the same tree, top link first
    recv_mask = 0
    m = 1
    while m < n:
        if rank & m:
            recv_mask = m
            break
        m <<= 1
    if rank != 0:
        out = _unpack((yield from host.recv(rank ^ recv_mask, tag0 + 1)))
    m = (recv_mask or mask) >> 1
    while m >= 1:
        child = rank | m
        if child < n and child != rank:
            yield from host.send(child, _pack(out), tag0 + 1)
            steps += 1
        m >>= 1
    return out, steps


ALGORITHMS: Dict[str, Callable] = {
    "ring": ring_all_reduce,
    "rh": rh_all_reduce,
    "tree": tree_all_reduce,
}


def expected_phases(algorithm: str, n: int) -> int:
    """Synchronous phase count of one all-reduce by schedule: the ring
    takes ``2(N-1)`` neighbor exchanges, recursive halving+doubling and
    the binomial tree both take ``2*ceil(log2 N)``."""
    if algorithm == "ring":
        return 2 * (n - 1)
    log = max(1, (n - 1).bit_length())
    return 2 * log


def expected_steps(algorithm: str, n: int) -> int:
    """Exact MAX per-rank send count of one all-reduce by schedule —
    the parameterized version of the old hard-coded ``2(N-1)`` ring
    invariant.  ``rh``/``tree`` counts assume a power-of-two N."""
    if algorithm == "ring":
        return 2 * (n - 1)
    log = max(1, (n - 1).bit_length())
    if algorithm == "rh":
        return 2 * log
    if algorithm == "tree":
        # Rank 0 sends to every bcast child (log of them); every other
        # rank sends once up plus its own children — also <= log.
        return log
    raise NetworkError(f"unknown algorithm {algorithm!r}")


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
    try:
        schedule = ALGORITHMS[algorithm]
    except KeyError:
        raise NetworkError(f"unknown algorithm {algorithm!r} "
                           f"(one of {sorted(ALGORITHMS)})") from None
    reduce_op = resolve_reduce_op(op, NetworkError)
    sim = instance.sim
    n = instance.n
    hosts = [FabricHost(instance, r) for r in range(n)]
    elems = elems_per_rank * n
    inputs = [fabric_vector(r, n, elems) for r in range(n)]
    # Rank by rank, left to right with the same combiner: a pairwise
    # reduction (np.sum) would change the association order.
    expected = reduce(reduce_op, inputs)
    finals: Dict[int, np.ndarray] = {}
    steps: Dict[int, int] = {}
    times: List[float] = []

    def rank_body(rank: int, it: int, tag0: int):
        trc = sim.tracer
        causal = trc.enabled and trc.wants("causal")
        if causal:
            trc.flow_event("rank.begin", f"n{rank}", req=it)
        out, nsteps = yield from schedule(hosts[rank], n, rank,
                                          inputs[rank], reduce_op, tag0)
        finals[rank] = out
        steps[rank] = max(steps.get(rank, 0), nsteps)
        if causal:
            trc.flow_event("rank.end", f"n{rank}", req=it)

    def driver():
        trc = sim.tracer
        causal = trc.enabled and trc.wants("causal")
        tag0 = 0
        for it in range(iterations):
            t0 = sim.now
            if causal:
                trc.flow_event("req.begin", "driver", req=it)
            procs = [sim.process(rank_body(r, it, tag0),
                                 name=f"coll.it{it}.r{r}")
                     for r in range(n)]
            # AllOf instead of yielding each process: joining hundreds of
            # already-finished processes one by one would recurse through
            # Process._resume once per join.
            yield AllOf(sim, procs)
            times.append(sim.now - t0)
            if causal:
                trc.flow_event("req.end", "driver", req=it)
            tag0 += 4 * n + 8           # fresh tag space per iteration

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
           "expected_phases", "fabric_vector", "run_collective",
           "ring_all_reduce", "rh_all_reduce", "tree_all_reduce"]
