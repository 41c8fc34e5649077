"""The completion-wait loop every poller in the model shares.

A poller re-reads a location until a predicate holds: a GPU or host thread
spinning on a flag, a notification slot or a CQE.  Long waits back off
progressively so multi-millisecond transfers are not dominated by poll
events; the :class:`PollPolicy` holds the ladder's constants as data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

from .trace import NULL_SPAN


@dataclass(frozen=True)
class PollPolicy:
    """After ``backoff_after`` misses, each further miss idles
    ``min(backoff_base * 2**((polls - backoff_after) // backoff_every),
    backoff_max)`` seconds before the next read."""

    backoff_after: int
    backoff_base: float
    backoff_every: int
    backoff_max: float


# A host core's PAUSE loop: cheap polls, so a late and gentle ladder.
HOST_POLL = PollPolicy(256, 0.2e-6, 64, 20e-6)
# A descheduled warp: each poll costs a memory round trip, so back off
# sooner and further.
GPU_POLL = PollPolicy(64, 1e-6, 32, 50e-6)


def poll(sim, read: Callable[[], Generator], predicate: Callable[[Any], bool],
         policy: PollPolicy, max_polls: Optional[int],
         error: Callable[[], Exception], category: Optional[str] = None,
         name: str = "", track: str = "main", addr: Optional[int] = None,
         histogram: str = "",
         then: Optional[Callable[[], Generator]] = None) -> Generator:
    """Run ``read()`` until ``predicate`` holds on its value.

    Returns ``(value, polls)``.  ``then()``, when given, runs after the hit
    and its result replaces ``value``; a traced wait's span (``category``
    / ``name`` on ``track``, with ``addr=`` when given) covers it.  After
    ``max_polls`` reads without a hit the span ends with an error and
    ``error()`` is raised.  A traced wait observes its poll count in the
    ``histogram`` metric.
    """
    trc = sim.tracer
    traced = category is not None and trc.wants(category)
    if traced:
        attrs = {} if addr is None else {"addr": hex(addr)}
        span = trc.begin(category, name, track=track, **attrs)
    else:
        span = NULL_SPAN
    after, base = policy.backoff_after, policy.backoff_base
    every, cap = policy.backoff_every, policy.backoff_max
    limit = float("inf") if max_polls is None else max_polls
    polls = 0
    while True:
        value = yield from read()
        polls += 1
        if predicate(value):
            break
        if polls >= limit:
            span.end(polls=polls, error="poll budget exhausted")
            raise error()
        if polls > after:
            yield sim.timeout(min(base * (2 ** ((polls - after) // every)), cap))
    if then is not None:
        value = yield from then()
    span.end(polls=polls)
    if traced:
        trc.metrics.histogram(histogram).observe(polls)
    return value, polls
