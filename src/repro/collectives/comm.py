"""Communicators: ring channels plus mode-dispatched point-to-point ops.

A :class:`Communicator` owns one :class:`~repro.core.msglib.Channel` per
ring edge of an N-node cluster (channel ``k`` connects ranks ``k`` and
``k+1 (mod N)``, pinned to port id ``k`` on both NICs — completer
notifications are routed by the port id the put descriptor carries, so both
ends of a channel must open the SAME id).  Every ring algorithm in
:mod:`repro.collectives.algorithms` only ever talks to its ring neighbors,
so these N channels are all the connectivity any of them needs, on any of
the fabric topologies (``pair``/``ring``/``full``/``switch``).

Each rank drives its channels through a :class:`RankComm`, whose ``send`` /
``recv`` generators dispatch on the :class:`CollectiveMode`:

* ``dev2dev-pollOnGPU`` — device threads post puts and spin on headers in
  device memory; zero notifications (the §VI msglib design).
* ``dev2dev-direct``    — device threads post notified puts and poll the
  requester/completer queues in host memory (§III-C), one PCIe round trip
  per poll.
* ``hostControlled``    — host threads drive the NIC with the §III-B API;
  flow-control state lives in host memory so the CPUs poll out of cache.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Tuple

from ..cluster import Cluster
from ..errors import BenchmarkError
from ..extoll import (
    NotificationCursor,
    NotifyFlags,
    RmaOp,
    RmaWorkRequest,
    rma_post,
    rma_wait_notification,
)
from ..core.gpu_rma import gpu_rma_wait_notification
from ..core.msglib import (
    _HEADER_BYTES,
    _LEN_MASK,
    _SEQ_SHIFT,
    Channel,
    ChannelEnd,
    create_channel_between,
    gpu_recv,
    gpu_recv_ready,
    gpu_send,
)

_NOTIFIED = NotifyFlags.REQUESTER | NotifyFlags.COMPLETER


class CollectiveMode(enum.Enum):
    """Who drives the NIC and where completion is detected."""

    POLL_ON_GPU = "dev2dev-pollOnGPU"
    DIRECT = "dev2dev-direct"
    HOST_CONTROLLED = "hostControlled"

    @property
    def host_driven(self) -> bool:
        return self is CollectiveMode.HOST_CONTROLLED


def collective_mode(name: str) -> CollectiveMode:
    for mode in CollectiveMode:
        if mode.value == name:
            return mode
    valid = ", ".join(m.value for m in CollectiveMode)
    raise BenchmarkError(f"unknown collective mode {name!r} "
                         f"(choose from: {valid})")


class Communicator:
    """N ranks (one per cluster node) wired with ring or all-pairs channels.

    ``connectivity="ring"`` (the default) lays one channel per ring edge —
    all the ring collectives need.  ``connectivity="full"`` wires every
    pair of ranks (the same all-pairs layout :class:`repro.mpi`'s
    communicator uses), which the service workloads' all-to-all and fan-in
    patterns require; ring algorithms run unchanged on top of it.
    """

    def __init__(self, cluster: Cluster,
                 mode: CollectiveMode = CollectiveMode.POLL_ON_GPU,
                 slot_size: int = 256, slots: int = 16,
                 reliable: bool = False, reliability_config=None,
                 connectivity: str = "ring") -> None:
        self.cluster = cluster
        self.mode = mode
        self.size = len(cluster)
        if self.size < 2:
            raise BenchmarkError("a communicator needs at least 2 ranks")
        if connectivity not in ("ring", "full"):
            raise BenchmarkError(
                f"unknown connectivity {connectivity!r} "
                f"(choose from: ring, full)")
        self.connectivity = connectivity
        self.slot_size = slot_size
        self.reliable = reliable
        self._channels: Dict[Tuple[int, int], Channel] = {}
        # Replayed puts must re-arm the receive path: both notified modes
        # (direct and hostControlled) wait on completer notifications, so
        # their retransmissions carry the COMPLETER flag; pollOnGPU spins on
        # the slot header and replays stay notification-free.
        replay_flags = (NotifyFlags.NONE if mode is CollectiveMode.POLL_ON_GPU
                        else NotifyFlags.COMPLETER)
        # Two nodes share ONE bidirectional channel (a 2-ring would lay a
        # duplicate channel over the same pair).
        if connectivity == "full":
            edges = [(i, j) for i in range(self.size)
                     for j in range(i + 1, self.size)]
        elif self.size == 2:
            edges = [(0, 1)]
        else:
            edges = [(k, (k + 1) % self.size) for k in range(self.size)]
        for port_id, (i, j) in enumerate(edges):
            self._channels[(min(i, j), max(i, j))] = create_channel_between(
                cluster, cluster.node(i), cluster.node(j),
                slot_size=slot_size, slots=slots, port_id=port_id,
                map_notifications=(mode is CollectiveMode.DIRECT),
                control_space="host" if mode.host_driven else "gpu",
                reliable=reliable, reliability_config=reliability_config,
                replay_flags=replay_flags)
        self.ranks = [RankComm(self, r) for r in range(self.size)]

    @property
    def reliability_engines(self) -> List:
        """Every direction's ChannelReliability engine (empty when the
        communicator was built without ``reliable=True``)."""
        out = []
        for _, channel in sorted(self._channels.items()):
            for end in (channel.a_to_b, channel.b_to_a):
                if end.reliability is not None:
                    out.append(end.reliability)
        return out

    @property
    def retransmits(self) -> int:
        return sum(e.retransmits for e in self.reliability_engines)

    # -- uniform stats protocol ---------------------------------------------------
    GAUGES = ("outstanding",)

    def snapshot(self) -> Dict[str, int]:
        """Aggregate reliability stats across every engine, in the uniform
        ``snapshot()/diff()`` shape the telemetry sampler polls."""
        out = {"retransmits": 0, "timeouts": 0, "ack_replays": 0,
               "exhausted": 0, "outstanding": 0}
        for engine in self.reliability_engines:
            for name, value in engine.snapshot().items():
                out[name] += value
        return out

    def diff(self, earlier: Dict[str, int]) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for name, value in self.snapshot().items():
            if name in self.GAUGES:
                out[name] = value
            else:
                out[name] = value - earlier.get(name, 0)
        return out

    def check_reliability_errors(self) -> None:
        """Raise the first RetryExhaustedError any engine recorded."""
        for engine in self.reliability_engines:
            if engine.error is not None:
                raise engine.error

    def channel(self, a: int, b: int) -> Channel:
        try:
            return self._channels[(min(a, b), max(a, b))]
        except KeyError:
            raise BenchmarkError(
                f"ranks {a} and {b} are not ring neighbors "
                f"(size {self.size}); ring collectives only wire "
                f"rank k <-> k+1 (build with connectivity='full' for "
                f"all-pairs traffic)") from None

    def launch(self, body, *extra) -> List:
        """Start ``body(ctx, rank_comm, *extra)`` on every rank — as a
        device kernel for the GPU-driven modes, as a host thread for
        ``hostControlled`` — and return the completion handles."""
        handles = []
        for rc in self.ranks:
            if self.mode.host_driven:
                def host_body(ctx, rc=rc):
                    yield from body(ctx, rc, *extra)
                handles.append(rc.node.cpu.spawn(
                    host_body, name=f"coll-rank{rc.rank}"))
            else:
                handles.append(rc.node.gpu.launch(body, args=(rc,) + extra))
        return handles


class RankComm:
    """One rank's view of the communicator: neighbor ids plus mode-correct
    ``send``/``recv``/``compute`` generators for device or host code."""

    def __init__(self, comm: Communicator, rank: int) -> None:
        self.comm = comm
        self.rank = rank
        self.size = comm.size
        self.node = comm.cluster.node(rank)
        self.next = (rank + 1) % self.size
        self.prev = (rank - 1) % self.size
        # One persistent cursor per queue: notification read pointers are
        # hardware state that survives across operations.
        self._req_cursors: Dict[int, NotificationCursor] = {}
        self._cmpl_cursors: Dict[int, NotificationCursor] = {}

    @property
    def mode(self) -> CollectiveMode:
        return self.comm.mode

    # -- channel plumbing --------------------------------------------------------
    def send_end(self, peer: int) -> ChannelEnd:
        return self.comm.channel(self.rank, peer).end_for_sender(self.rank)

    def recv_end(self, peer: int) -> ChannelEnd:
        return self.comm.channel(self.rank, peer).end_for_receiver(self.rank)

    def _req_cursor(self, peer: int) -> NotificationCursor:
        cur = self._req_cursors.get(peer)
        if cur is None:
            cur = self._req_cursors[peer] = NotificationCursor(
                self.send_end(peer).port.requester_queue)
        return cur

    def _cmpl_cursor(self, peer: int) -> NotificationCursor:
        # Arrivals from ``peer`` notify the completer queue of *this* node's
        # port on the shared channel (puts carry the channel's port id).
        cur = self._cmpl_cursors.get(peer)
        if cur is None:
            cur = self._cmpl_cursors[peer] = NotificationCursor(
                self.send_end(peer).port.completer_queue)
        return cur

    # -- mode-dispatched primitives ----------------------------------------------
    def compute(self, ctx, amount: int):
        """Charge ``amount`` instructions of local arithmetic (reductions)."""
        if self.mode.host_driven:
            yield from ctx.compute(amount)
        else:
            yield from ctx.alu(amount)

    def send(self, ctx, peer: int, data: bytes):
        """Send one message to a ring neighbor.

        ``pollOnGPU`` returns as soon as the put is posted (credit
        backpressure only); ``direct`` and ``hostControlled`` additionally
        wait for the requester notification, so completion of the local
        send is known before the next algorithm step.
        """
        end = self.send_end(peer)
        if self.mode is CollectiveMode.POLL_ON_GPU:
            yield from gpu_send(ctx, end, data)
        elif self.mode is CollectiveMode.DIRECT:
            yield from gpu_send(ctx, end, data, flags=_NOTIFIED)
            yield from gpu_rma_wait_notification(ctx, self._req_cursor(peer))
            trc = ctx.sim.tracer
            if trc.wants("causal"):
                # gpu_send advanced next_seq; re-derive the slot just sent.
                seq = end.next_seq - 1
                trc.flow_event(
                    "snd.done", f"n{end.src_node_id}",
                    addr=(end.dst_node_id,
                          end.ring_nla.base + end.slot_offset(seq)),
                    seq=seq)
        else:
            yield from self._host_send(ctx, end, peer, data)

    def recv(self, ctx, peer: int):
        """Receive the next message from a ring neighbor; returns bytes."""
        end = self.recv_end(peer)
        reverse = self.send_end(peer)
        if self.mode is CollectiveMode.POLL_ON_GPU:
            return (yield from gpu_recv(ctx, end, reverse))
        if self.mode is CollectiveMode.DIRECT:
            trc = ctx.sim.tracer
            if trc.wants("causal"):
                # Stamp the receive at its CALL time, before the
                # notification wait: the consume helpers run after the
                # wait, and a late ``rcv`` would re-anchor the walk past
                # the remote delivery, hiding the blocked-on-remote join.
                seq = end.consumed + 1
                trc.flow_event(
                    "rcv", f"n{end.dst_node_id}",
                    addr=(end.dst_node_id,
                          end.ring_nla.base + end.slot_offset(seq)),
                    seq=seq, via="notif")
            yield from gpu_rma_wait_notification(ctx, self._cmpl_cursor(peer))
            if self.comm.reliable:
                # Under faults a completer notification may belong to a
                # duplicate (replayed) put, so it no longer proves THIS
                # message arrived — fall back to spinning on the header.
                return (yield from gpu_recv(ctx, end, reverse,
                                            announce=False))
            return (yield from gpu_recv_ready(ctx, end, reverse,
                                              announce=False))
        return (yield from self._host_recv(ctx, end, reverse, peer))

    # -- hostControlled implementation --------------------------------------------
    # The CPU runs the §III-B librma API over the same slot rings.  Payloads
    # stay in device memory end to end (GPUDirect); the staging/drain below
    # is functional — the producing/consuming device kernels are represented
    # by the explicit ``compute`` charges, the CPU only assembles
    # descriptors and polls notifications, exactly the paper's
    # hostControlled division of labor.

    def _host_send(self, ctx, end: ChannelEnd, peer: int, data: bytes):
        if len(data) > end.payload_capacity:
            raise BenchmarkError(
                f"message of {len(data)} bytes exceeds slot payload "
                f"{end.payload_capacity}")
        seq = end.next_seq
        trc = ctx.sim.tracer
        causal = trc.wants("causal")
        if causal:
            addr = (end.dst_node_id, end.ring_nla.base + end.slot_offset(seq))
            actor = f"n{end.src_node_id}"
            trc.flow_event("snd", actor, addr=addr, seq=seq, bytes=len(data))
        gated = seq - 1 >= end.slots
        if gated:
            min_credit = seq - end.slots
            yield from ctx.spin_until_u64(end.credit_word.base,
                                          lambda v, m=min_credit: v >= m)
        if causal:
            trc.flow_event("crd", actor, addr=addr, seq=seq, gated=gated,
                           waited_on=(end.src_node_id,
                                      end.credit_word_nla.base))
        stage = end.staging.base + end.slot_offset(seq)
        gpu = self.node.gpu
        padded = data + bytes(-len(data) % 8)
        if padded:
            gpu.dram.write(stage, padded)
        gpu.dram.write_u64(stage + end.slot_size - _HEADER_BYTES,
                           (seq << _SEQ_SHIFT) | len(data))
        yield from ctx.compute(4 + len(data) // 8)  # kernel producing the slot
        if causal:
            trc.flow_event("stg", actor, addr=addr, seq=seq, via="host",
                           bytes=len(data))
        wr = RmaWorkRequest(
            op=RmaOp.PUT, port=end.port_id, dst_node=end.dst_node_id,
            src_nla=end.staging_nla.base + end.slot_offset(seq),
            dst_nla=end.ring_nla.base + end.slot_offset(seq),
            size=end.slot_size, flags=_NOTIFIED)
        yield from rma_post(ctx, end.page_addr, wr)
        if causal:
            trc.flow_event("pst", actor, addr=addr, seq=seq, via="host")
        yield from rma_wait_notification(ctx, self._req_cursor(peer))
        if causal:
            trc.flow_event("snd.done", actor, addr=addr, seq=seq)
        end.next_seq += 1
        if end.reliability is not None:
            end.reliability.note_send(seq)

    def _host_recv(self, ctx, end: ChannelEnd, reverse: ChannelEnd,
                   peer: int):
        trc = ctx.sim.tracer
        causal = trc.wants("causal")
        if causal:
            trc.flow_event(
                "rcv", f"n{end.dst_node_id}",
                addr=(end.dst_node_id,
                      end.ring_nla.base + end.slot_offset(end.consumed + 1)),
                seq=end.consumed + 1, via="notif")
        yield from rma_wait_notification(ctx, self._cmpl_cursor(peer))
        seq = end.consumed + 1
        gpu = self.node.gpu
        slot = end.ring.base + end.slot_offset(seq)
        header = gpu.dram.read_u64(slot + end.slot_size - _HEADER_BYTES)
        while (header >> _SEQ_SHIFT) != seq:
            if not self.comm.reliable:
                raise BenchmarkError(
                    f"host recv: slot carries seq {header >> _SEQ_SHIFT}, "
                    f"expected {seq}")
            # Under faults the notification may belong to a duplicate
            # (replayed) put; wait for the real message to land.
            yield from ctx.sleep(2e-6)
            header = gpu.dram.read_u64(slot + end.slot_size - _HEADER_BYTES)
        length = header & _LEN_MASK
        data = bytes(gpu.dram.read(slot, length)) if length else b""
        yield from ctx.compute(4 + length // 8)  # kernel draining the slot
        end.consumed = seq
        if causal:
            trc.flow_event("rcd", f"n{end.dst_node_id}",
                           addr=(end.dst_node_id,
                                 end.ring_nla.base + end.slot_offset(seq)),
                           seq=seq, via="notif", bytes=length)
        if (end.consumed - end.credits_returned
                >= (end.credit_interval or max(1, end.slots // 2))):
            yield from ctx.write_u64(end.credit_staging.base, end.consumed)
            credit_wr = RmaWorkRequest(
                op=RmaOp.PUT, port=reverse.port_id,
                dst_node=reverse.dst_node_id,
                src_nla=end.credit_staging_nla.base,
                dst_nla=end.credit_word_nla.base, size=8,
                flags=NotifyFlags.NONE)
            yield from rma_post(ctx, reverse.page_addr, credit_wr)
            end.credits_returned = end.consumed
        return data


def run_ops(ctx, rc: RankComm, ops, send=None):
    """Drive one rank's op script (the vocabulary of
    :mod:`repro.collectives.schedules`) over ``rc``'s mode-dispatched
    primitives; returns ``(result, sends)``.  ``send(ctx, peer, data)``
    replaces ``rc.send`` where a transport posts its puts differently
    (the workloads engine mode)."""
    send = send or rc.send
    recv, compute = rc.recv, rc.compute
    trc = ctx.sim.tracer
    sends = 0
    value = None
    while True:
        try:
            op = ops.send(value)
        except StopIteration as stop:
            return stop.value, sends
        kind = op[0]
        if kind == "recv":
            value = yield from recv(ctx, op[1])
            continue
        value = None
        if kind == "send":
            yield from send(ctx, op[1], op[2])
            sends += 1
        elif kind == "compute":
            yield from compute(ctx, op[1])
            if trc.wants("causal"):
                trc.flow_event("cmp", f"n{rc.rank}", instr=op[1])
        else:
            raise BenchmarkError(f"unknown op {kind!r}")
