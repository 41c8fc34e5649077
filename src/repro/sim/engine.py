"""The discrete-event simulator core.

A :class:`Simulator` owns a time-ordered event heap and advances simulated
time by processing events in (time, insertion-order) order.  All model state
changes happen inside event callbacks, which in practice means inside
coroutine *processes* (:mod:`repro.sim.process`).

Determinism: ties in time are broken by a monotonically increasing sequence
number, so two runs of the same model produce identical schedules.  Every
event is pushed exactly once, keyed ``(time, seq)``, at the moment it is
triggered; the run loop only pops.
"""

from __future__ import annotations

import heapq
import random
from typing import Any, Callable, Generator, List, Optional, Sequence, Tuple

from ..errors import DeadlockError, SimulationError
from .event import PROCESSED, Event, Timeout
from .process import Process
from .trace import NULL_TRACER, get_default_tracer


class ScheduledCall:
    """Cancellable handle returned by :meth:`Simulator.call_later`.

    The underlying :class:`~repro.sim.event.Timeout` is already on the heap
    the moment it is created, so cancellation cannot unschedule it; instead
    :meth:`cancel` drops the function reference and the heap entry fires as
    a no-op.  That is exactly what the triggered-operations layer needs to
    retire rendezvous timeouts and armed-but-never-fired chains: the closure
    (and everything it captures) is released immediately, and nothing runs
    when the slot's time arrives.
    """

    __slots__ = ("event", "_fn", "_fired")

    def __init__(self, event: Timeout, fn: Callable[[], None]) -> None:
        self.event = event
        self._fn: Optional[Callable[[], None]] = fn
        self._fired = False

    @property
    def fired(self) -> bool:
        """True once the callback has actually run."""
        return self._fired

    @property
    def cancelled(self) -> bool:
        return self._fn is None and not self._fired

    @property
    def active(self) -> bool:
        """Still scheduled: neither fired nor cancelled."""
        return self._fn is not None

    def cancel(self) -> bool:
        """Retire the call; returns False if it already fired or was
        already cancelled."""
        if self._fn is None:
            return False
        self._fn = None
        return True

    def _run(self, _ev: Event) -> None:
        fn, self._fn = self._fn, None
        if fn is not None:
            self._fired = True
            fn()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "fired" if self._fired else (
            "cancelled" if self._fn is None else "scheduled")
        return f"<ScheduledCall {self.event.name!r} {state}>"


class Simulator:
    """Event loop for one simulated system.

    Attributes
    ----------
    now:
        Current simulated time in seconds.
    tracer:
        The observability tracer models report to (``self.sim.tracer``).
        Defaults to the process-wide default (normally the zero-cost
        :data:`~repro.sim.trace.NULL_TRACER`); install a real one with
        :meth:`set_tracer` or :func:`repro.sim.trace.set_default_tracer`.
    rng:
        The simulation's seeded random stream (``random.Random``) — the ONLY
        source of randomness models may use, so that two simulators built
        with the same ``seed`` replay byte-identically.  Never seeded from
        wall-clock: the default seed is 0.
    """

    def __init__(self, tracer=None, seed: int = 0) -> None:
        self._now: float = 0.0
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq: int = 0
        self._active_processes: int = 0
        #: Events processed since construction.  Deterministic for a given
        #: model + seed, which makes it the machine-independent proxy for
        #: simulator work that the bench harness tracks alongside raw
        #: wall-clock (``python -m repro bench``).
        self.events_processed: int = 0
        self.seed = seed
        self.rng = random.Random(seed)
        self.tracer = tracer if tracer is not None else get_default_tracer()
        if self.tracer is not NULL_TRACER:
            self.tracer.bind(self)

    def set_tracer(self, tracer) -> None:
        """Install ``tracer`` (binding it to this simulator's clock)."""
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.tracer.bind(self)

    # -- time -----------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    # -- event construction -----------------------------------------------------
    def event(self, name: str = "") -> Event:
        """A fresh pending event bound to this simulator."""
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None, name: str = "") -> Timeout:
        """An event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value, name)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Spawn a coroutine process (see :mod:`repro.sim.process`)."""
        return Process(self, generator, name)

    def call_later(self, delay: float, fn: Callable[[], None],
                   name: str = "") -> ScheduledCall:
        """Run ``fn()`` after ``delay`` seconds of simulated time.

        One heap entry, no coroutine machinery — the cheapest way to hook
        periodic observers (e.g. the telemetry sampler) onto the event
        loop; ``fn`` may re-arm itself by calling :meth:`call_later` again.
        Returns a :class:`ScheduledCall` whose :meth:`~ScheduledCall.cancel`
        turns the pending fire into a no-op and releases ``fn``.
        """
        ev = Timeout(self, delay, name=name or "call_later")
        handle = ScheduledCall(ev, fn)
        ev.add_callback(handle._run)
        return handle

    # -- running ----------------------------------------------------------------
    def peek(self) -> float:
        """Time of the next scheduled event, or ``float('inf')`` if none."""
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        """Process exactly one event."""
        if not self._heap:
            raise SimulationError("step() on an empty schedule")
        when, _seq, event = heapq.heappop(self._heap)
        self._now = when
        self.events_processed += 1
        event._run_callbacks()

    def _drain(self, horizon: float, awaited: Sequence[Event] = ()) -> None:
        """Process events in ``(time, seq)`` order while the next one is due
        no later than ``horizon``.  With ``awaited``, return as soon as all
        of those events are processed.

        The loop body is :meth:`step` and :meth:`Event._run_callbacks`
        inlined.  The completion check is a cursor over ``awaited``: an
        event stays processed once it is, so each step looks at one event.
        """
        heap = self._heap
        pop = heapq.heappop
        i, n = 0, len(awaited)
        while heap and heap[0][0] <= horizon:
            if n:
                while awaited[i]._state is PROCESSED:
                    i += 1
                    if i == n:
                        return
            when, _seq, event = pop(heap)
            self._now = when
            self.events_processed += 1
            event._state = PROCESSED
            callbacks = event.callbacks
            event.callbacks = []
            for cb in callbacks:
                cb(event)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the schedule drains or simulated time reaches ``until``.

        Raises
        ------
        DeadlockError
            If the schedule drains while processes are still alive and no
            ``until`` horizon was given (the model is stuck).
        """
        if until is not None and until < self._now:
            raise SimulationError(f"until={until!r} is in the past (now={self._now!r})")
        self._drain(float("inf") if until is None else until)
        if until is not None:
            self._now = until
        elif self._active_processes > 0:
            raise DeadlockError(
                f"schedule drained with {self._active_processes} process(es) still waiting"
            )

    def run_until_complete(self, *events: Event, limit: Optional[float] = None) -> None:
        """Run until every event in ``events`` has been processed.

        ``limit`` bounds simulated time; exceeding it raises
        :class:`SimulationError` (useful to catch livelocks in tests) and
        leaves the next event on the heap, unprocessed.
        """
        if not events:
            raise SimulationError("run_until_complete() needs at least one event")
        self._drain(float("inf") if limit is None else limit, events)
        waiting = [e for e in events if e._state is not PROCESSED]
        if not waiting:
            return
        if not self._heap:
            raise DeadlockError(
                "schedule drained before awaited events completed: "
                + ", ".join(repr(e) for e in waiting))
        raise SimulationError(f"simulated time limit {limit!r}s exceeded")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator now={self._now:g} queued={len(self._heap)}>"
