"""Collective algorithms over :class:`~repro.collectives.comm.RankComm`.

Every algorithm is a generator that runs identically as device code (a
``ThreadCtx``) or host code (a ``HostThread``) — the mode-specific put/get
mechanics live entirely behind ``rc.send``/``rc.recv``/``rc.compute``.
The ring schedules only talk to ring neighbors; the recursive-halving and
binomial-tree all-reduces exchange with ``rank ^ dist`` partners and need
``connectivity="full"``.  All return ``(result, steps)`` where ``steps``
counts the point-to-point messages THIS rank sent — the quantity the
scaling analysis checks against each schedule's closed form (``2*(N-1)``
for the ring, ``2*log2 N`` for halving, ``log2 N`` for the tree).

Deadlock freedom: sends are buffered (the msglib slot ring gives ``slots``
messages of credit per direction), so the uniform send-before-recv order
used below never blocks on an unposted receive.

Every all-reduce stack (these schedules, fabrics, mpi and workloads)
shares the data plane below: float64 arrays, ``'<f8'`` message bytes, and
one combiner call over a slice per received message.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import BenchmarkError

#: The 8-byte token circulated by :func:`barrier`.
_TOKEN = struct.pack("<Q", 0xB0)

#: Wire dtype of every all-reduce message: little-endian float64, so the
#: bytes do not depend on the host's byte order.
F8 = np.dtype("<f8")


#: Element-wise reduction operators shared by every all-reduce stack: each
#: maps two equal-length float64 arrays to ``owned OP incoming`` and is
#: applied in the same fixed association order on every path, which keeps
#: the stacks bit-exact against each other for every op, including the
#: rounding-sensitive ``sum`` and ``prod``.  ``max``/``min`` keep the
#: scalar ``a if a >= b else b`` rule, so NaN and signed zeros select the
#: same operand (``np.maximum`` would not).
REDUCE_OPS = {
    "sum": np.add,
    "max": lambda a, b: np.where(a >= b, a, b),
    "min": lambda a, b: np.where(a <= b, a, b),
    "prod": np.multiply,
}


def resolve_reduce_op(op: str, error: type = BenchmarkError):
    """The combiner for ``op``; an unknown ``op`` raises ``error`` (the
    calling layer's exception type) listing the choices."""
    try:
        return REDUCE_OPS[op]
    except KeyError:
        raise error(
            f"unknown reduction op {op!r} "
            f"(choose from: {', '.join(sorted(REDUCE_OPS))})") from None


def _pack(values) -> bytes:
    return np.asarray(values, dtype=F8).tobytes()


def _unpack(data: bytes) -> np.ndarray:
    """A read-only float64 view of ``data``; copy before writing."""
    return np.frombuffer(data, dtype=F8)


def exact_match(got: Sequence[float], expected: Sequence[float]) -> bool:
    """All-reduce verdict: a non-empty result of exactly the expected
    length whose every element equals the expected one (``==``, no
    tolerance).  Small-integer inputs are exact in float64 under any
    association order, so any difference is a real error."""
    got = np.asarray(got, dtype=F8)
    expected = np.asarray(expected, dtype=F8)
    return (got.size > 0 and got.shape == expected.shape
            and bool(np.all(got == expected)))


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


def ring_all_reduce(ctx, rc, values: List[float],
                    op: str = "sum") -> Tuple[List[float], int]:
    """Bandwidth-optimal ring all-reduce of a float64 vector.

    The vector is split into ``N`` chunks; a reduce-scatter pass (``N-1``
    steps) leaves each rank with one fully reduced chunk, then an
    all-gather pass (``N-1`` steps) circulates the reduced chunks — the
    canonical ``2*(N-1)`` step schedule whose step count the analysis
    verifies.  Each step moves ``len(values)/N`` elements, so per-step cost
    is directly comparable to a 2-node ping-pong of the chunk size.

    ``op`` selects the element-wise reduction from :data:`REDUCE_OPS`
    (``sum``/``max``/``min``/``prod``); the combiner is always applied as
    ``op(owned, incoming)`` so the result is reproducible bit for bit.
    """
    combine = resolve_reduce_op(op)
    n = rc.size
    if not len(values) or len(values) % n:
        raise BenchmarkError(
            f"all-reduce vector length {len(values)} must be a positive "
            f"multiple of the {n} ranks")
    chunk_len = len(values) // n
    out = np.array(values, dtype=F8)
    chunks = out.reshape(n, chunk_len)  # row i is a view of chunk i
    steps = 0
    # Reduce-scatter: after step s, chunk (rank-s-1)%n holds partial sums
    # of s+2 contributions; after N-1 steps rank r owns the full sum of
    # chunk (r+1)%n.
    for s in range(n - 1):
        send_idx = (rc.rank - s) % n
        recv_idx = (rc.rank - s - 1) % n
        yield from rc.send(ctx, rc.next, _pack(chunks[send_idx]))
        incoming = _unpack((yield from rc.recv(ctx, rc.prev)))
        yield from rc.compute(ctx, 2 * chunk_len)  # fused add of one chunk
        chunks[recv_idx] = combine(chunks[recv_idx], incoming)
        steps += 1
    # All-gather of the reduced chunks, starting from the one this rank owns.
    for s in range(n - 1):
        send_idx = (rc.rank + 1 - s) % n
        recv_idx = (rc.rank - s) % n
        yield from rc.send(ctx, rc.next, _pack(chunks[send_idx]))
        chunks[recv_idx] = _unpack((yield from rc.recv(ctx, rc.prev)))
        steps += 1
    return out.tolist(), steps


def rh_all_reduce(ctx, rc, values: List[float],
                  op: str = "sum") -> Tuple[List[float], int]:
    """Recursive-halving reduce-scatter + recursive-doubling allgather.

    ``2*log2(N)`` phases of pairwise exchanges with partner ``rank ^
    dist``; message size halves during the scatter and doubles back
    during the gather, so total bytes match the ring while the phase
    count drops from ``2(N-1)`` to logarithmic.  Needs a power-of-two
    rank count and all-pairs connectivity (``connectivity="full"``).

    The combiner is applied as ``op(owned, incoming)`` in a fixed window
    order, so the result is bit-exact against :func:`ring_all_reduce`
    for integer-valued inputs.
    """
    combine = resolve_reduce_op(op)
    n = rc.size
    if n & (n - 1):
        raise BenchmarkError(
            f"recursive halving needs a power-of-two rank count, got {n}")
    if not len(values) or len(values) % n:
        raise BenchmarkError(
            f"all-reduce vector length {len(values)} must be a positive "
            f"multiple of the {n} ranks")
    out = np.array(values, dtype=F8)
    steps = 0
    lo, hi = 0, len(out)                # this rank's active window
    dist = n // 2
    while dist >= 1:                    # reduce-scatter, halving
        partner = rc.rank ^ dist
        mid = (lo + hi) // 2
        if rc.rank & dist:              # I keep the upper half
            send_lo, send_hi, keep_lo, keep_hi = lo, mid, mid, hi
        else:
            send_lo, send_hi, keep_lo, keep_hi = mid, hi, lo, mid
        yield from rc.send(ctx, partner, _pack(out[send_lo:send_hi]))
        steps += 1
        incoming = _unpack((yield from rc.recv(ctx, partner)))
        yield from rc.compute(ctx, 2 * len(incoming))
        out[keep_lo:keep_hi] = combine(out[keep_lo:keep_hi], incoming)
        lo, hi = keep_lo, keep_hi
        dist //= 2
    dist = 1
    while dist < n:                     # allgather, doubling (mirror)
        partner = rc.rank ^ dist
        yield from rc.send(ctx, partner, _pack(out[lo:hi]))
        steps += 1
        incoming = _unpack((yield from rc.recv(ctx, partner)))
        if rc.rank & dist:              # partner held the half below mine
            out[2 * lo - hi:lo] = incoming
            lo = 2 * lo - hi
        else:
            out[hi:2 * hi - lo] = incoming
            hi = 2 * hi - lo
        dist *= 2
    return out.tolist(), steps


def tree_all_reduce(ctx, rc, values: List[float],
                    op: str = "sum") -> Tuple[List[float], int]:
    """Binomial-tree reduce to rank 0 plus binomial broadcast back.

    ``2*ceil(log2 N)`` phases of full-vector messages; at most
    ``ceil(log2 N)`` sends per rank.  Latency-optimal for small vectors
    (the crossover the fabric sweep measures against the ring).  Needs
    all-pairs connectivity; any rank count works.
    """
    combine = resolve_reduce_op(op)
    n = rc.size
    if not len(values):
        raise BenchmarkError("all-reduce needs a non-empty vector")
    out = np.array(values, dtype=F8)
    steps = 0
    mask = 1
    while mask < n:                     # reduce toward rank 0
        if rc.rank & mask:
            yield from rc.send(ctx, rc.rank ^ mask, _pack(out))
            steps += 1
            break                       # my subtree went up; wait for bcast
        src = rc.rank | mask
        if src < n:
            incoming = _unpack((yield from rc.recv(ctx, src)))
            yield from rc.compute(ctx, 2 * len(incoming))
            out = combine(out, incoming)
        mask <<= 1
    # broadcast back down: receive from the parent (the lowest set bit),
    # then feed children below that bit, widest subtree first.
    recv_mask = rc.rank & -rc.rank if rc.rank else 0
    if rc.rank != 0:
        out = _unpack((yield from rc.recv(ctx, rc.rank ^ recv_mask)))
    m = recv_mask >> 1
    if rc.rank == 0:
        m = 1
        while m < n:
            m <<= 1
        m >>= 1
    while m >= 1:
        child = rc.rank | m
        if child < n and child != rc.rank:
            yield from rc.send(ctx, child, _pack(out))
            steps += 1
        m >>= 1
    return out.tolist(), steps


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
