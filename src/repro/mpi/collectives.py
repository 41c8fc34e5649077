"""Nonblocking collectives staged as chain DAGs.

Each collective is written as a plain generator over ``isend``/``irecv``
requests (and float compute charges) and driven by a callback *pump*: when
the generator yields an already-complete request the pump advances
immediately, otherwise it parks a callback on the request's ``done`` event
and returns.  Every hop therefore runs entirely inside NIC completion
callbacks — the host never polls, and the only work between messages is
the triggered layer arming the next pre-staged chain.

``iallreduce`` stages the op scripts of :mod:`repro.collectives.schedules`
through :func:`mpi_ops` — the same schedules, chunk indexing and
reduction association order as every other stack, so it is bit-exact
against the msglib ``ring_all_reduce`` for the same input vector.
"""

from __future__ import annotations

from typing import List, Optional

from ..collectives.schedules import _pack, check_allreduce, resolve_reduce_op
from ..errors import MpiError
from .comm import MpiCommunicator, MpiRank
from .request import MpiRequest

#: Collective traffic lives in the top half of the 16-bit tag space so it
#: can never collide with user point-to-point tags (kept below it by
#: convention) — and successive collectives on one communicator use
#: successive tags, which keeps concurrent collectives separated too.
_COLL_TAG_BASE = 1 << 15
_COLL_TAG_SPAN = 1 << 15


def _coll_tag(rank: MpiRank) -> int:
    """Per-rank collective sequence number mapped into the reserved tag
    space.  MPI requires every rank to start the same collectives in the
    same order, which makes the local counter globally consistent."""
    seq = rank.coll_seq
    rank.coll_seq += 1
    return _COLL_TAG_BASE + seq % _COLL_TAG_SPAN


def _pump(comm: MpiCommunicator, gen, req: MpiRequest) -> None:
    """Drive ``gen`` to completion through completion callbacks."""
    sim = comm.sim

    def step(value=None) -> None:
        item_value = value
        while True:
            try:
                item = gen.send(item_value)
            except StopIteration as stop:
                req.complete(stop.value)
                return
            except Exception as exc:  # surfaces in check_async_errors
                comm.async_errors.append(exc)
                req.complete(None)
                return
            if isinstance(item, MpiRequest):
                if item.done.processed:
                    item_value = item.data
                    continue
                item.done.add_callback(lambda _ev, it=item: step(it.data))
                return
            # A float is a compute charge (reduction arithmetic).
            sim.call_later(float(item), step)
            return

    step()


def mpi_ops(rank: MpiRank, ops, tag: int):
    """Translate an op script (the vocabulary of
    :mod:`repro.collectives.schedules`) into the pump vocabulary:
    ``MpiRequest`` yields and float compute charges.  Returns the
    script's result.

    Sends are posted without waiting and drained at script end —
    rendezvous sends only complete once the peer's matching receive
    produces the CTS, so awaiting them inline would deadlock symmetric
    exchange patterns.
    """
    per_instr = rank.node.gpu.config.instruction_time
    isend, irecv = rank.isend, rank.irecv
    trc = rank.comm.sim.tracer
    sends: List[MpiRequest] = []
    value = None
    while True:
        try:
            op = ops.send(value)
        except StopIteration as stop:
            result = stop.value
            break
        kind = op[0]
        if kind == "recv":
            value = yield irecv(source=op[1], tag=tag)
            continue
        value = None
        if kind == "send":
            sends.append(isend(op[1], op[2], tag=tag))
        elif kind == "compute":
            yield op[1] * per_instr
            if trc.wants("causal"):
                trc.flow_event("cmp", f"n{rank.rank}", instr=op[1])
        else:
            raise MpiError(f"unknown op {kind!r}")
    for sreq in sends:
        yield sreq
    return result


# -- the collectives -------------------------------------------------------------

def ibarrier(comm: MpiCommunicator, rank: MpiRank) -> MpiRequest:
    """Ring token barrier (two sweeps), returning immediately with a
    request that completes once every rank has entered."""
    tag = _coll_tag(rank)
    req = MpiRequest(comm.sim, "barrier", rank.rank)

    def body():
        for _sweep in range(2):
            if rank.rank == 0:
                yield rank.isend(rank.next, b"\xb0" * 8, tag=tag)
                yield rank.irecv(source=rank.prev, tag=tag)
            else:
                yield rank.irecv(source=rank.prev, tag=tag)
                yield rank.isend(rank.next, b"\xb0" * 8, tag=tag)

    _pump(comm, body(), req)
    return req


def ibcast(comm: MpiCommunicator, rank: MpiRank,
           data: Optional[bytes] = None, root: int = 0) -> MpiRequest:
    """Ring broadcast from ``root``; ``req.data`` is the payload."""
    tag = _coll_tag(rank)
    req = MpiRequest(comm.sim, "bcast", rank.rank)
    pos = (rank.rank - root) % rank.size
    if pos == 0 and data is None:
        raise MpiError("ibcast root must supply data")

    def body():
        payload = data
        if pos == 0:
            yield rank.isend(rank.next, payload, tag=tag)
        else:
            payload = yield rank.irecv(source=rank.prev, tag=tag)
            if pos != rank.size - 1:
                yield rank.isend(rank.next, payload, tag=tag)
        return payload

    _pump(comm, body(), req)
    return req


def iallreduce(comm: MpiCommunicator, rank: MpiRank,
               values: List[float], op: str = "sum",
               algorithm: str = "ring") -> MpiRequest:
    """Nonblocking all-reduce of a float64 vector; ``req.data`` holds the
    packed result (``struct '<{n}d'``, same as PR 2's collectives).

    ``algorithm`` picks the :data:`~repro.collectives.schedules.SCHEDULES`
    entry whose chain DAG gets staged: ``"ring"`` (``2*(N-1)`` steps),
    ``"rh"`` (``2*log2 N`` pairwise phases, power-of-two N) or ``"tree"``
    (binomial reduce + broadcast).  Every ``op`` from
    :data:`~repro.collectives.schedules.REDUCE_OPS` is applied in the
    schedule's fixed ``op(owned, incoming)`` order, so results are
    bit-exact across layers AND across algorithms for integer-valued
    inputs.
    """
    combine = resolve_reduce_op(op, MpiError)
    schedule = check_allreduce(algorithm, rank.size, len(values), MpiError)
    tag = _coll_tag(rank)
    req = MpiRequest(comm.sim, "allreduce", rank.rank)

    def body():
        out = yield from mpi_ops(
            rank, schedule(rank.rank, rank.size, values, combine), tag)
        return _pack(out)

    _pump(comm, body(), req)
    return req
