"""Set-associative cache model (the GPU's L2).

The model tracks *which lines are resident* and produces hit/miss outcomes
plus statistics; it does not store data (data always lives in the backing
memory — the cache only changes timing and counters, which is exactly what
the paper's performance-counter analysis needs).

Granularity follows NVIDIA's L2: 32-byte sectors within 128-byte lines; we
model at sector granularity, which is what the ``l2_read_requests`` /
``l2_read_hits`` counters in Tables I and II count.

Eviction is LRU within a set.  Writes are modeled write-back/write-allocate
for device-memory traffic (a store brings the sector in), which reproduces
the effect that polling a just-written flag in device memory hits in L2.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List

from ..errors import ConfigError


@dataclass
class CacheStats:
    read_requests: int = 0
    read_hits: int = 0
    read_misses: int = 0
    write_requests: int = 0
    write_hits: int = 0
    write_misses: int = 0

    def reset(self) -> None:
        for name in vars(self):
            setattr(self, name, 0)

    def snapshot(self) -> "CacheStats":
        return CacheStats(**vars(self))


@dataclass(frozen=True)
class CacheConfig:
    size_bytes: int = 1536 * 1024   # Kepler GK110: 1.5 MiB L2
    line_bytes: int = 32            # sector granularity
    ways: int = 16

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.line_bytes <= 0 or self.ways <= 0:
            raise ConfigError("cache geometry must be positive")
        if self.size_bytes % (self.line_bytes * self.ways) != 0:
            raise ConfigError(
                f"cache size {self.size_bytes} not divisible by "
                f"line*ways={self.line_bytes * self.ways}"
            )
        if self.line_bytes & (self.line_bytes - 1):
            raise ConfigError("line size must be a power of two")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.ways)


class Cache:
    """LRU set-associative presence cache."""

    def __init__(self, config: CacheConfig | None = None) -> None:
        self.config = config or CacheConfig()
        self.stats = CacheStats()
        # Geometry as plain ints: the per-sector math runs on every access.
        self._line_bytes = self.config.line_bytes
        self._num_sets = self.config.num_sets
        self._ways = self.config.ways
        # One OrderedDict per set: tag -> True, LRU order = insertion order.
        self._sets: List[OrderedDict] = [OrderedDict() for _ in range(self._num_sets)]

    def _access(self, addr: int, length: int) -> tuple[int, int]:
        """Touch every sector of ``[addr, addr+length)`` (at least one) in
        address order: a hit refreshes LRU, a miss fills and may evict.
        Returns (hits, misses)."""
        line_bytes = self._line_bytes
        num_sets = self._num_sets
        sets = self._sets
        first = addr // line_bytes
        last = (addr + (length if length > 1 else 1) - 1) // line_bytes
        hits = 0
        for line in range(first, last + 1):
            s = sets[line % num_sets]
            tag = line // num_sets
            if tag in s:
                s.move_to_end(tag)
                hits += 1
            else:
                s[tag] = True
                if len(s) > self._ways:
                    s.popitem(last=False)  # evict LRU
        return hits, last - first + 1 - hits

    # -- access API ---------------------------------------------------------------
    def read(self, addr: int, length: int) -> tuple[int, int]:
        """Access ``length`` bytes at ``addr``.  Returns (hits, misses) in
        sector units and updates stats."""
        hits, misses = self._access(addr, length)
        self.stats.read_requests += hits + misses
        self.stats.read_hits += hits
        self.stats.read_misses += misses
        return hits, misses

    def write(self, addr: int, length: int) -> tuple[int, int]:
        """Write-allocate access; returns (hits, misses) in sector units."""
        hits, misses = self._access(addr, length)
        self.stats.write_requests += hits + misses
        self.stats.write_hits += hits
        self.stats.write_misses += misses
        return hits, misses

    def invalidate(self, addr: int, length: int) -> int:
        """Drop any resident sectors overlapping the range (used when another
        PCIe agent DMA-writes device memory); returns sectors dropped."""
        line_bytes, num_sets = self._line_bytes, self._num_sets
        dropped = 0
        for line in range(addr // line_bytes,
                          (addr + max(length, 1) - 1) // line_bytes + 1):
            s = self._sets[line % num_sets]
            tag = line // num_sets
            if tag in s:
                del s[tag]
                dropped += 1
        return dropped

    def contains(self, addr: int) -> bool:
        line = addr // self._line_bytes
        return line // self._num_sets in self._sets[line % self._num_sets]

    @property
    def resident_sectors(self) -> int:
        return sum(len(s) for s in self._sets)

    def flush(self) -> None:
        for s in self._sets:
            s.clear()
