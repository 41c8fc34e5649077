"""Host-speed calibration for the wall-clock metrics.

On a shared host the same pass of the same unit can take 15-40 % longer in
one run than in the next, and CPU time tracks wall time, so the host itself
runs slower.  A fixed piece of interpreter work, timed right beside the
program's calls, measures that speed; the end-to-end times are scaled by it
to the reference speed ``REFERENCE_S``.

The work never touches the simulator, so a change to the program cannot
move it.  It mixes the two kinds of work the simulator does: a heap of
tuples with generator resumption and small-object, dict and attribute
traffic, and loads scattered over an 8 MiB array, which feel
cache and memory contention the way the simulator's heap does.
"""

from __future__ import annotations

import gc
import heapq
import time
from array import array

#: Seconds one calibration takes on the reference machine (a 2-core Xeon
#: container, Python 3.11).  End-to-end host times are scaled to it.
REFERENCE_S = 0.055

#: Heap/generator steps and scattered loads per calibration.
MIX_STEPS, CHASES = 24000, 60000
_CHASE_BITS = 20


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key, self.value = key, value


class Calibrator:
    """Times the calibration work; one per process."""

    def __init__(self) -> None:
        self.table = array("q", bytes(8 << _CHASE_BITS))

    def __call__(self, runs: int = 1) -> float:
        """Mean seconds of ``runs`` calibrations.  The collector is off
        meanwhile, so no program garbage is collected inside them."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            for _ in range(runs):
                self._mix()
                self._chase()
            return (time.perf_counter() - start) / runs
        finally:
            if enabled:
                gc.enable()

    def _mix(self) -> None:
        heap, table = [], {}

        def pump():
            total = 0
            while True:
                total += yield total

        gen = pump()
        next(gen)
        for i in range(MIX_STEPS):
            item = _Item(i * 7919 % 1009, i)
            heapq.heappush(heap, (item.key, i, item))
            table[i & 511] = gen.send(item.value & 7)
            if len(heap) > 64:
                heapq.heappop(heap)

    def _chase(self) -> None:
        # A full-period linear congruential walk (odd increment, multiplier
        # 1 mod 4) visits the whole table in scattered order.
        table, mask, i, total = self.table, (1 << _CHASE_BITS) - 1, 0, 0
        for _ in range(CHASES):
            i = (5 * i + 0x9E3779B1) & mask
            total += table[i]
