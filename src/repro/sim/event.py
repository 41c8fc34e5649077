"""Events — the unit of synchronization in the discrete-event engine.

An :class:`Event` starts *pending*, is *triggered* exactly once (either
succeeded with a value or failed with an exception), and then runs its
callbacks when the simulator processes it.  Processes wait on events by
``yield``-ing them; see :mod:`repro.sim.process`.

Events are the simulator's hot path, so the state checks below compare
against the module-level state constants instead of looking up enum
members or properties, and an event's default name is only formatted when
something asks for it (``repr``).
"""

from __future__ import annotations

import enum
from heapq import heappush
from typing import Any, Callable, List, Optional, TYPE_CHECKING

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Simulator


class EventState(enum.Enum):
    PENDING = "pending"
    TRIGGERED = "triggered"  # scheduled, callbacks not yet run
    PROCESSED = "processed"  # callbacks have run


PENDING = EventState.PENDING
TRIGGERED = EventState.TRIGGERED
PROCESSED = EventState.PROCESSED


class Event:
    """A one-shot occurrence at a point in simulated time.

    Parameters
    ----------
    sim:
        The owning simulator.  Events are bound to exactly one simulator.
    name:
        Optional label used by ``repr``.  Subclasses derive a default label
        on demand (:meth:`_default_name`) when none is given.
    """

    __slots__ = ("sim", "_name", "_state", "_value", "_ok", "callbacks")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self._name = name
        self._state = PENDING
        self._value: Any = None
        self._ok: Optional[bool] = None
        self.callbacks: List[Callable[["Event"], None]] = []

    @property
    def name(self) -> str:
        return self._name or self._default_name()

    def _default_name(self) -> str:
        return ""

    # -- state inspection ---------------------------------------------------
    @property
    def state(self) -> EventState:
        return self._state

    @property
    def pending(self) -> bool:
        return self._state is PENDING

    @property
    def triggered(self) -> bool:
        return self._state is not PENDING

    @property
    def processed(self) -> bool:
        return self._state is PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError(f"{self!r} has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The success value or the failure exception."""
        if self._state is PENDING:
            raise SimulationError(f"{self!r} has no value yet")
        return self._value

    # -- triggering ---------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully, scheduling callbacks after
        ``delay`` seconds of simulated time."""
        self._trigger(True, value, delay)
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event as failed with ``exc``."""
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() needs an exception, got {exc!r}")
        self._trigger(False, exc, delay)
        return self

    def _trigger(self, ok: bool, value: Any, delay: float) -> None:
        """Mark the event triggered and push it onto the simulator's heap
        at ``(now + delay, next sequence number)``."""
        if self._state is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if delay < 0.0:
            raise SimulationError(f"negative delay: {delay!r}")
        self._state = TRIGGERED
        self._ok = ok
        self._value = value
        sim = self.sim
        seq = sim._seq
        sim._seq = seq + 1
        heappush(sim._heap, (sim._now + delay, seq, self))

    def _run_callbacks(self) -> None:
        """Called by the simulator when the event's time arrives."""
        self._state = PROCESSED
        callbacks, self.callbacks = self.callbacks, []
        for cb in callbacks:
            cb(self)

    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Register ``cb`` to run when the event is processed.  If the event
        was already processed the callback runs immediately."""
        if self._state is PROCESSED:
            cb(self)
        else:
            self.callbacks.append(cb)

    def __repr__(self) -> str:
        name = self.name
        label = f" {name!r}" if name else ""
        return f"<{type(self).__name__}{label} {self._state.value}>"


class OpEvent(Event):
    """An event that ``owner`` (a resource, store or process) creates for
    operation ``op``.  Its default name, ``"<op>:<owner name>"``, is
    formatted only when asked for."""

    __slots__ = ("_owner", "_op")

    def __init__(self, owner: Any, op: str) -> None:
        super().__init__(owner.sim)
        self._owner = owner
        self._op = op

    def _default_name(self) -> str:
        return f"{self._op}:{self._owner.name}"


class Timeout(Event):
    """An event that succeeds after a fixed delay.  The canonical way for a
    process to spend simulated time."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None,
                 name: str = "") -> None:
        if delay < 0.0:
            raise SimulationError(f"negative timeout: {delay!r}")
        super().__init__(sim, name)
        self.delay = delay
        self._trigger(True, value, delay)

    def _default_name(self) -> str:
        return f"timeout({self.delay:g})"
