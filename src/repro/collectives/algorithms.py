"""Collective algorithms over :class:`~repro.collectives.comm.RankComm`.

Every algorithm is a generator that runs identically as device code (a
``ThreadCtx``) or host code (a ``HostThread``) — the mode-specific put/get
mechanics live entirely behind ``rc.send``/``rc.recv``/``rc.compute``.
The ring schedules only talk to ring neighbors; the recursive-halving and
binomial-tree all-reduces exchange with hypercube partners and need
``connectivity="full"``.  All return ``(result, steps)`` where ``steps``
counts the point-to-point messages THIS rank sent — the quantity the
scaling analysis checks against each schedule's closed form (``2*(N-1)``
for the ring, ``2*log2 N`` for halving, ``log2 N`` for the tree).

Deadlock freedom: sends are buffered (the msglib slot ring gives ``slots``
messages of credit per direction), so the uniform send-before-recv order
used below never blocks on an unposted receive.

The all-reduces are :mod:`repro.collectives.schedules` scripts driven by
:func:`~repro.collectives.comm.run_ops`.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Tuple

from ..errors import BenchmarkError
from .comm import run_ops
from .schedules import check_allreduce, resolve_reduce_op

#: The 8-byte token circulated by :func:`barrier`.
_TOKEN = struct.pack("<Q", 0xB0)


def barrier(ctx, rc) -> int:
    """Ring token barrier: rank 0 circulates a token around the ring twice.

    After the first sweep rank 0 knows everyone arrived; the second sweep
    releases everyone.  Returns the steps (sends) this rank performed (2).
    """
    steps = 0
    for _sweep in range(2):
        if rc.rank == 0:
            yield from rc.send(ctx, rc.next, _TOKEN)
            yield from rc.recv(ctx, rc.prev)
        else:
            yield from rc.recv(ctx, rc.prev)
            yield from rc.send(ctx, rc.next, _TOKEN)
        steps += 1
    return steps


def broadcast(ctx, rc, data: Optional[bytes] = None,
              root: int = 0) -> Tuple[bytes, int]:
    """Ring broadcast: the payload is relayed around the ring from ``root``,
    store-and-forward, ``N-1`` hops end to end (at most one send per rank).
    """
    pos = (rc.rank - root) % rc.size
    steps = 0
    if pos == 0:
        if data is None:
            raise BenchmarkError("broadcast root must supply data")
        yield from rc.send(ctx, rc.next, data)
        steps += 1
    else:
        data = yield from rc.recv(ctx, rc.prev)
        if pos != rc.size - 1:      # the last rank has nobody left to feed
            yield from rc.send(ctx, rc.next, data)
            steps += 1
    return data, steps


def all_gather(ctx, rc, contribution: bytes) -> Tuple[List[bytes], int]:
    """Ring all-gather in ``N-1`` steps: each step forwards the piece
    received in the previous step to ``next`` while receiving a new piece
    from ``prev``.  Returns the pieces indexed by originating rank."""
    n = rc.size
    pieces: List[Optional[bytes]] = [None] * n
    pieces[rc.rank] = contribution
    cur = contribution
    steps = 0
    for step in range(n - 1):
        yield from rc.send(ctx, rc.next, cur)
        cur = yield from rc.recv(ctx, rc.prev)
        pieces[(rc.rank - 1 - step) % n] = cur
        steps += 1
    return pieces, steps


def _all_reduce(algorithm: str, ctx, rc, values: List[float], op: str):
    combine = resolve_reduce_op(op)
    schedule = check_allreduce(algorithm, rc.size, len(values))
    out, steps = yield from run_ops(
        ctx, rc, schedule(rc.rank, rc.size, values, combine))
    return out.tolist(), steps


def ring_all_reduce(ctx, rc, values: List[float],
                    op: str = "sum") -> Tuple[List[float], int]:
    """:func:`~repro.collectives.schedules.ring` over the ring channels:
    ``2*(N-1)`` steps of ``len(values)/N`` elements each, so per-step cost
    is directly comparable to a 2-node ping-pong of the chunk size.

    ``op`` selects the element-wise reduction (``sum``/``max``/``min``/
    ``prod``); the combiner is always applied as ``op(owned, incoming)``
    so the result is reproducible bit for bit.
    """
    return (yield from _all_reduce("ring", ctx, rc, values, op))


def rh_all_reduce(ctx, rc, values: List[float],
                  op: str = "sum") -> Tuple[List[float], int]:
    """:func:`~repro.collectives.schedules.rh`: ``2*log2(N)`` pairwise
    exchange phases.  Needs a power-of-two rank count and all-pairs
    connectivity (``connectivity="full"``)."""
    return (yield from _all_reduce("rh", ctx, rc, values, op))


def tree_all_reduce(ctx, rc, values: List[float],
                    op: str = "sum") -> Tuple[List[float], int]:
    """:func:`~repro.collectives.schedules.tree`: binomial reduce to rank
    0 plus binomial broadcast back, ``2*ceil(log2 N)`` phases.  Needs
    all-pairs connectivity; any rank count works."""
    return (yield from _all_reduce("tree", ctx, rc, values, op))


def halo_exchange(ctx, rc, interior: bytes, halo_bytes: int,
                  periodic: bool = True):
    """1-D domain halo exchange with both ring neighbors.

    Sends the first/last ``halo_bytes`` of ``interior`` to ``prev``/``next``
    and receives the matching ghost regions.  ``periodic=False`` drops the
    exchange across the domain boundary (ranks 0 and N-1 keep a ``None``
    ghost on their outer side).  Returns ``((left_ghost, right_ghost),
    steps)``.

    Every rank sends its right edge before its left edge; with in-order
    channels this makes the first arrival from ``prev`` the left ghost even
    when N=2 collapses both neighbors onto one peer.
    """
    if halo_bytes <= 0 or len(interior) < 2 * halo_bytes:
        raise BenchmarkError(
            f"interior of {len(interior)} bytes cannot shed two "
            f"{halo_bytes}-byte halos")
    has_prev = periodic or rc.rank > 0
    has_next = periodic or rc.rank < rc.size - 1
    steps = 0
    if has_next:
        yield from rc.send(ctx, rc.next, interior[-halo_bytes:])
        steps += 1
    if has_prev:
        yield from rc.send(ctx, rc.prev, interior[:halo_bytes])
        steps += 1
    left_ghost = right_ghost = None
    if has_prev:
        left_ghost = yield from rc.recv(ctx, rc.prev)
    if has_next:
        right_ghost = yield from rc.recv(ctx, rc.next)
    return (left_ghost, right_ghost), steps
