"""Benchmark-side spans and per-layer host self time.

Spans wrap the calls the benchmark makes into the program (build, connect,
drive, verify) and are kept in memory until the run ends.  Self time comes
from ``cProfile``, grouped by the ``repro.<subpackage>`` that owns each
function; time in builtins is charged to the subpackage that called them.
"""

from __future__ import annotations

import pstats
import re
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

#: Layers reported as ``<layer>.self_s``.  ``obs`` covers the obs,
#: telemetry and causal subpackages; ``other`` takes everything else
#: (the benchmark, the standard library, repro's top-level modules and
#: unlisted subpackages, and profiled time no function accounts for).
LAYERS = ("sim", "memory", "pcie", "gpu", "cpu", "extoll", "ib", "core",
          "network", "fabrics", "collectives", "engine", "triggered", "mpi",
          "workloads", "obs")
_ALIASES = {"telemetry": "obs", "causal": "obs"}
_REPRO = re.compile(r"[\\/]repro[\\/](\w+)[\\/]")


class Spans:
    """In-memory span log: (name, start, end, parent index, unit id)."""

    def __init__(self) -> None:
        self.records: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, unit: Optional[str] = None):
        index = len(self.records)
        record = {"name": name, "unit": unit,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None}
        self.records.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


def layer_of(filename: str) -> str:
    """The layer that owns the code in ``filename`` (``other`` if none)."""
    match = _REPRO.search(filename)
    if match is None:
        return "other"
    sub = _ALIASES.get(match.group(1), match.group(1))
    return sub if sub in LAYERS else "other"


def layer_self_times(stats: pstats.Stats, wall: float) -> Dict[str, float]:
    """Self seconds per layer from a profile covering ``wall`` seconds.

    A builtin's self time is split over its callers by the time each
    caller spent in it.  ``other`` is the rest of ``wall``, so the values
    add up to ``wall`` exactly.
    """
    out = dict.fromkeys(LAYERS, 0.0)
    for (filename, _line, _name), (_cc, _nc, tt, _ct, callers) \
            in stats.stats.items():
        if filename != "~":
            layer = layer_of(filename)
            if layer != "other":
                out[layer] += tt
            continue
        for (caller_file, _l, _n), (_cnc, _ccc, caller_tt, _cct) \
                in callers.items():
            layer = layer_of(caller_file)
            if layer != "other":
                out[layer] += caller_tt
    out["other"] = wall - sum(out.values())
    return out
