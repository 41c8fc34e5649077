"""The all-reduce schedules, written once for every transport.

Each schedule is a generator ``schedule(rank, n, values, combine)`` over
a three-word op vocabulary:

* ``("send", peer, data)`` — hand the packed bytes ``data`` to ``peer``;
* ``("recv", peer)`` — the next message from ``peer``; its bytes come
  back as the yield value;
* ``("compute", instructions)`` — charge local arithmetic.  Every
  schedule charges ``2 * len(incoming)`` instructions (a fused combine)
  before each reduction.

and returns the rank's final float64 array.  The schedules never touch a
simulator: :func:`repro.collectives.comm.run_ops` (msglib channels),
``FabricHost.run`` and :func:`repro.mpi.collectives.mpi_ops` interpret
the same scripts, so the schedules, their closed forms and their
argument check exist only here.

Every stack shares the data plane below too: float64 arrays, ``'<f8'``
message bytes, and one ``combine(owned, incoming)`` call over a slice per
received message, in a fixed order per schedule — which keeps every
transport bit-exact against every other for any op and any input.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import BenchmarkError

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


# -- the schedules ------------------------------------------------------------

def ring(rank: int, n: int, values, combine):
    """Bandwidth-optimal ring all-reduce.

    The vector is split into ``N`` chunks; a reduce-scatter pass (``N-1``
    steps) leaves each rank with one fully reduced chunk, then an
    all-gather pass (``N-1`` steps) circulates the reduced chunks — the
    canonical ``2*(N-1)`` step schedule.  Each step moves
    ``len(values)/N`` elements to the ring successor only.
    """
    out = np.array(values, dtype=F8)
    chunks = out.reshape(n, -1)         # row i is a view of chunk i
    nxt, prv = (rank + 1) % n, (rank - 1) % n
    # Reduce-scatter: after step s, chunk (rank-s-1)%n holds partial sums
    # of s+2 contributions; after N-1 steps rank r owns the full sum of
    # chunk (r+1)%n.
    for s in range(n - 1):
        recv_idx = (rank - s - 1) % n
        yield ("send", nxt, _pack(chunks[(rank - s) % n]))
        incoming = _unpack((yield ("recv", prv)))
        yield ("compute", 2 * len(incoming))
        chunks[recv_idx] = combine(chunks[recv_idx], incoming)
    # All-gather of the reduced chunks, starting from the one this rank owns.
    for s in range(n - 1):
        yield ("send", nxt, _pack(chunks[(rank + 1 - s) % n]))
        chunks[(rank - s) % n] = _unpack((yield ("recv", prv)))
    return out


def rh(rank: int, n: int, values, combine):
    """Recursive-halving reduce-scatter + recursive-doubling allgather.

    ``2*log2(N)`` phases of pairwise exchanges with partner ``rank ^
    dist``; message size halves during the scatter and doubles back
    during the gather, so total bytes match the ring while the phase
    count drops to logarithmic.  Needs a power-of-two N.
    """
    out = np.array(values, dtype=F8)
    lo, hi = 0, len(out)                # this rank's active window
    dist = n // 2
    while dist >= 1:                    # reduce-scatter, halving
        partner = rank ^ dist
        mid = (lo + hi) // 2
        if rank & dist:                 # I keep the upper half
            send_lo, send_hi, keep_lo, keep_hi = lo, mid, mid, hi
        else:
            send_lo, send_hi, keep_lo, keep_hi = mid, hi, lo, mid
        yield ("send", partner, _pack(out[send_lo:send_hi]))
        incoming = _unpack((yield ("recv", partner)))
        yield ("compute", 2 * len(incoming))
        out[keep_lo:keep_hi] = combine(out[keep_lo:keep_hi], incoming)
        lo, hi = keep_lo, keep_hi
        dist //= 2
    dist = 1
    while dist < n:                     # allgather, doubling (mirror)
        partner = rank ^ dist
        yield ("send", partner, _pack(out[lo:hi]))
        incoming = _unpack((yield ("recv", partner)))
        if rank & dist:                 # partner held the half below mine
            out[2 * lo - hi:lo] = incoming
            lo = 2 * lo - hi
        else:
            out[hi:2 * hi - lo] = incoming
            hi = 2 * hi - lo
        dist *= 2
    return out


def tree(rank: int, n: int, values, combine):
    """Binomial-tree reduce to rank 0 plus binomial broadcast back.

    ``2*ceil(log2 N)`` phases of full-vector messages; at most
    ``ceil(log2 N)`` sends per rank.  Latency-optimal for small vectors;
    any N and any non-empty length work.
    """
    out = np.array(values, dtype=F8)
    mask = 1
    while mask < n:                     # reduce toward rank 0
        if rank & mask:
            yield ("send", rank ^ mask, _pack(out))
            break                       # my subtree went up; wait for bcast
        src = rank | mask
        if src < n:
            incoming = _unpack((yield ("recv", src)))
            yield ("compute", 2 * len(incoming))
            out = combine(out, incoming)
        mask <<= 1
    # Broadcast back down: receive from the parent (the lowest set bit),
    # then feed children below that bit, widest subtree first.
    if rank:
        recv_mask = rank & -rank
        out = _unpack((yield ("recv", rank ^ recv_mask)))
        m = recv_mask >> 1
    else:
        m = 1 << max(0, (n - 1).bit_length() - 1)
    while m >= 1:
        if rank | m < n:
            yield ("send", rank | m, _pack(out))
        m >>= 1
    return out


#: Every all-reduce schedule, by the name each CLI and bench uses.
SCHEDULES = {"ring": ring, "rh": rh, "tree": tree}


def check_allreduce(algorithm: str, n: int, length: int,
                    error: type = BenchmarkError):
    """The schedule for ``algorithm`` after checking that it can reduce a
    ``length``-element vector over ``n`` ranks; raises ``error`` (the
    calling layer's exception type) otherwise.  ``ring`` and ``rh`` split
    the vector into ``n`` chunks, ``rh`` also halves the rank set down to
    one, and ``tree`` moves whole vectors."""
    try:
        schedule = SCHEDULES[algorithm]
    except KeyError:
        raise error(f"unknown all-reduce algorithm {algorithm!r} "
                    f"(choose from: {', '.join(SCHEDULES)})") from None
    if algorithm == "rh" and n & (n - 1):
        raise error(f"recursive halving needs a power-of-two rank count, "
                    f"got {n}")
    if not length:
        raise error("all-reduce needs a non-empty vector")
    if algorithm != "tree" and length % n:
        raise error(f"all-reduce vector length {length} must be a "
                    f"multiple of the {n} ranks")
    return schedule


def expected_phases(algorithm: str, n: int) -> int:
    """Synchronous phase count of one all-reduce by schedule: the ring
    takes ``2(N-1)`` neighbor exchanges, recursive halving+doubling and
    the binomial tree both take ``2*ceil(log2 N)``."""
    if algorithm == "ring":
        return 2 * (n - 1)
    return 2 * max(1, (n - 1).bit_length())


def expected_steps(algorithm: str, n: int) -> int:
    """Exact MAX per-rank send count of one all-reduce by schedule.
    ``rh``/``tree`` counts assume a power-of-two N."""
    if algorithm == "ring":
        return 2 * (n - 1)
    log = max(1, (n - 1).bit_length())
    if algorithm == "rh":
        return 2 * log
    if algorithm == "tree":
        # Rank 0 sends to every bcast child (log of them); every other
        # rank sends once up plus its own children — also <= log.
        return log
    raise BenchmarkError(f"unknown all-reduce algorithm {algorithm!r}")


__all__ = ["F8", "REDUCE_OPS", "SCHEDULES", "check_allreduce",
           "exact_match", "expected_phases", "expected_steps",
           "resolve_reduce_op", "ring", "rh", "tree"]
