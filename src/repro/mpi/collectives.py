"""Nonblocking collectives staged as chain DAGs.

Each collective is written as a plain generator over ``isend``/``irecv``
requests (and float compute charges) and driven by a callback *pump*: when
the generator yields an already-complete request the pump advances
immediately, otherwise it parks a callback on the request's ``done`` event
and returns.  Every hop therefore runs entirely inside NIC completion
callbacks — the host never polls, and the only work between messages is
the triggered layer arming the next pre-staged chain.

The algorithms mirror :mod:`repro.collectives.algorithms` step for step
(same ring schedule, same chunk indexing, same reduction association
order), so an ``iallreduce`` here is bit-exact against PR 2's
``ring_all_reduce`` for the same input vector.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..collectives.algorithms import F8, _pack, _unpack, resolve_reduce_op
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
            sim.call_later(float(item), step,
                           name=f"mpi:compute:{req.kind}:{req.rank}")
            return

    step()


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


#: The all-reduce schedules :func:`iallreduce` can stage.
ALLREDUCE_ALGORITHMS = ("ring", "rh", "tree")


def iallreduce(comm: MpiCommunicator, rank: MpiRank,
               values: List[float], op: str = "sum",
               algorithm: str = "ring") -> MpiRequest:
    """Nonblocking all-reduce of a float64 vector; ``req.data`` holds the
    packed result (``struct '<{n}d'``, same as PR 2's collectives).

    ``algorithm`` picks the chain DAG that gets staged:

    * ``"ring"`` — ``ring_all_reduce``'s schedule verbatim: reduce-scatter
      then all-gather, ``2*(N-1)`` steps;
    * ``"rh"`` — recursive halving/doubling, ``2*log2 N`` pairwise
      exchange phases (power-of-two N);
    * ``"tree"`` — binomial reduce to rank 0 + binomial broadcast,
      ``2*ceil(log2 N)`` phases of full-vector messages.

    All three apply the reduction (any ``op`` from
    :data:`~repro.collectives.algorithms.REDUCE_OPS`) in the identical
    ``op(owned, incoming)`` association order as their PR 2 counterparts,
    so results are bit-exact across layers AND across algorithms for
    integer-valued inputs.

    Rendezvous deadlock avoidance is uniform: a send only finishes once
    the peer's matching receive produced the CTS, so every schedule posts
    its ``isend`` without waiting, blocks on the ``irecv``, and drains
    the send requests at the end.
    """
    n = rank.size
    combine = resolve_reduce_op(op, MpiError)
    if algorithm not in ALLREDUCE_ALGORITHMS:
        raise MpiError(f"unknown all-reduce algorithm {algorithm!r} "
                       f"(choose from: {', '.join(ALLREDUCE_ALGORITHMS)})")
    if not len(values) or len(values) % n:
        raise MpiError(
            f"all-reduce vector length {len(values)} must be a positive "
            f"multiple of the {n} ranks")
    if algorithm == "rh" and n & (n - 1):
        raise MpiError(f"recursive halving needs a power-of-two rank "
                       f"count, got {n}")
    tag = _coll_tag(rank)
    req = MpiRequest(comm.sim, "allreduce", rank.rank)
    chunk_len = len(values) // n
    per_instr = rank.node.gpu.config.instruction_time

    def ring_body():
        chunks = np.array(values, dtype=F8).reshape(n, chunk_len)
        sends = []
        for s in range(n - 1):
            send_idx = (rank.rank - s) % n
            recv_idx = (rank.rank - s - 1) % n
            sends.append(rank.isend(rank.next, _pack(chunks[send_idx]),
                                    tag=tag))
            incoming = _unpack((yield rank.irecv(source=rank.prev,
                                                 tag=tag)))
            yield 2 * chunk_len * per_instr     # fused combine of one chunk
            chunks[recv_idx] = combine(chunks[recv_idx], incoming)
        for s in range(n - 1):
            send_idx = (rank.rank + 1 - s) % n
            recv_idx = (rank.rank - s) % n
            sends.append(rank.isend(rank.next, _pack(chunks[send_idx]),
                                    tag=tag))
            chunks[recv_idx] = _unpack((yield rank.irecv(source=rank.prev,
                                                         tag=tag)))
        for sreq in sends:
            yield sreq
        return _pack(chunks)

    def rh_body():
        out = np.array(values, dtype=F8)
        sends = []
        lo, hi = 0, len(out)            # this rank's active window
        dist = n // 2
        while dist >= 1:                # reduce-scatter, halving
            partner = rank.rank ^ dist
            mid = (lo + hi) // 2
            if rank.rank & dist:        # I keep the upper half
                send_lo, send_hi, keep_lo, keep_hi = lo, mid, mid, hi
            else:
                send_lo, send_hi, keep_lo, keep_hi = mid, hi, lo, mid
            sends.append(rank.isend(partner, _pack(out[send_lo:send_hi]),
                                    tag=tag))
            incoming = _unpack((yield rank.irecv(source=partner, tag=tag)))
            yield 2 * len(incoming) * per_instr
            out[keep_lo:keep_hi] = combine(out[keep_lo:keep_hi], incoming)
            lo, hi = keep_lo, keep_hi
            dist //= 2
        dist = 1
        while dist < n:                 # allgather, doubling (mirror)
            partner = rank.rank ^ dist
            sends.append(rank.isend(partner, _pack(out[lo:hi]), tag=tag))
            incoming = _unpack((yield rank.irecv(source=partner, tag=tag)))
            if rank.rank & dist:        # partner held the half below mine
                out[2 * lo - hi:lo] = incoming
                lo = 2 * lo - hi
            else:
                out[hi:2 * hi - lo] = incoming
                hi = 2 * hi - lo
            dist *= 2
        for sreq in sends:
            yield sreq
        return _pack(out)

    def tree_body():
        out = np.asarray(values, dtype=F8)
        sends = []
        mask = 1
        while mask < n:                 # binomial reduce toward rank 0
            if rank.rank & mask:
                sends.append(rank.isend(rank.rank ^ mask, _pack(out),
                                        tag=tag))
                break                   # my subtree went up; wait for bcast
            src = rank.rank | mask
            if src < n:
                incoming = _unpack((yield rank.irecv(source=src, tag=tag)))
                yield 2 * len(incoming) * per_instr
                out = combine(out, incoming)
            mask <<= 1
        recv_mask = rank.rank & -rank.rank if rank.rank else 0
        if rank.rank != 0:
            out = _unpack((yield rank.irecv(source=rank.rank ^ recv_mask,
                                            tag=tag)))
        m = recv_mask >> 1
        if rank.rank == 0:
            m = 1
            while m < n:
                m <<= 1
            m >>= 1
        while m >= 1:                   # broadcast down, widest subtree first
            child = rank.rank | m
            if child < n and child != rank.rank:
                sends.append(rank.isend(child, _pack(out), tag=tag))
            m >>= 1
        for sreq in sends:
            yield sreq
        return _pack(out)

    bodies = {"ring": ring_body, "rh": rh_body, "tree": tree_body}
    _pump(comm, bodies[algorithm](), req)
    return req
