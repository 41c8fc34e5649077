"""Address ranges, address spaces, and the per-node physical address map.

Each simulated node has one *physical* address map that routes accesses from
any agent (CPU, GPU L2 front-end, NIC DMA engine) to a target: a RAM-backed
:class:`~repro.memory.region.Memory` or an :class:`~repro.memory.mmio.MmioWindow`.
The conventional layout mirrors a real PCIe system:

* ``0x0000_0000_0000`` — host DRAM
* ``0x2000_0000_0000`` — GPU device memory (exposed via PCIe BAR1 for
  GPUDirect RDMA)
* ``0x4000_0000_0000`` — device MMIO (NIC BARs, doorbells)
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Iterator, List, Tuple

from ..errors import AddressError


class MemorySpace(enum.Enum):
    """Which physical resource a given address resolves to."""

    HOST_DRAM = "host_dram"
    GPU_DRAM = "gpu_dram"
    MMIO = "mmio"


# Conventional base addresses of the three windows in a node's physical map.
HOST_DRAM_BASE = 0x0000_0000_0000
GPU_DRAM_BASE = 0x2000_0000_0000
MMIO_BASE = 0x4000_0000_0000


@dataclass(frozen=True)
class AddressRange:
    """A half-open interval [base, base+size) of physical addresses."""

    base: int
    size: int
    end: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.base < 0:
            raise AddressError(f"negative base address {self.base:#x}")
        if self.size <= 0:
            raise AddressError(f"non-positive range size {self.size}")
        object.__setattr__(self, "end", self.base + self.size)

    def contains(self, addr: int, length: int = 1) -> bool:
        return self.base <= addr and addr + length <= self.end

    def overlaps(self, other: "AddressRange") -> bool:
        return self.base < other.end and other.base < self.end

    def offset_of(self, addr: int) -> int:
        if not (self.base <= addr and addr + 1 <= self.end):
            raise AddressError(f"{addr:#x} outside {self}")
        return addr - self.base

    def split(self, chunk: int) -> Iterator["AddressRange"]:
        """Yield consecutive sub-ranges of at most ``chunk`` bytes."""
        if chunk <= 0:
            raise AddressError(f"non-positive chunk {chunk}")
        addr = self.base
        while addr < self.end:
            step = min(chunk, self.end - addr)
            yield AddressRange(addr, step)
            addr += step

    def __str__(self) -> str:
        return f"[{self.base:#x}, {self.end:#x})"


class AddressMap:
    """Routes physical addresses to mapped targets.

    Targets are any object exposing a ``range`` attribute of type
    :class:`AddressRange` and a ``space`` attribute of type
    :class:`MemorySpace`.  Lookups reject accesses that straddle a mapping
    boundary, as real interconnects would.
    """

    def __init__(self) -> None:
        self._entries: List[Tuple[AddressRange, object]] = []
        # Ends of ``_entries``, sorted like the entries (mappings never
        # overlap, so sorting by base also sorts by end).
        self._ends: List[int] = []

    def add(self, target: object) -> None:
        rng: AddressRange = getattr(target, "range")
        i = bisect_right(self._ends, rng.base)
        if i < len(self._entries) and self._entries[i][0].base < rng.end:
            raise AddressError(
                f"mapping {rng} overlaps existing {self._entries[i][0]}")
        self._entries.insert(i, (rng, target))
        self._ends.insert(i, rng.end)

    def resolve(self, addr: int, length: int = 1) -> Tuple[object, int]:
        """Return ``(target, offset_within_target)`` for an access."""
        # The only candidate is the first mapping that ends past the
        # access's first byte (past ``addr + length`` for ``length < 1``).
        i = bisect_left(self._ends, addr + (1 if length > 0 else length))
        if i < len(self._ends):
            rng, target = self._entries[i]
            if rng.base <= addr:
                if addr + length <= rng.end:
                    return target, addr - rng.base
                raise AddressError(
                    f"access [{addr:#x}, {addr + length:#x}) straddles mapping {rng}"
                )
        raise AddressError(f"unmapped physical address {addr:#x} (+{length})")

    def space_of(self, addr: int) -> MemorySpace:
        return self.resolve(addr)[0].space

    def targets(self) -> List[object]:
        return [t for _, t in self._entries]
