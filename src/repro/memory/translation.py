"""Generic page-granular address translation.

Used twice in the library:

* the EXTOLL ATU translates Network Logical Addresses (NLAs) to node-physical
  addresses (§III-A),
* the GPU's UVA layer translates unified virtual addresses to node-physical
  addresses (device memory, host mappings, and the MMIO mappings that the
  paper's NVIDIA-driver patch enables).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Optional

from ..errors import TranslationError
from .address import AddressRange


@dataclass(frozen=True)
class Mapping:
    """One contiguous translation entry: virtual → physical."""

    virtual: AddressRange
    physical_base: int
    writable: bool = True
    label: str = ""


class TranslationTable:
    """An ordered collection of non-overlapping virtual mappings."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._mappings: list[Mapping] = []
        # Virtual ends of ``_mappings``, in the same (sorted) order.
        self._ends: list[int] = []

    def map(self, virtual: AddressRange, physical_base: int, *,
            writable: bool = True, label: str = "") -> Mapping:
        i = bisect_right(self._ends, virtual.base)
        if i < len(self._mappings) and self._mappings[i].virtual.base < virtual.end:
            raise TranslationError(
                f"{self.name}: new mapping {virtual} overlaps {self._mappings[i].virtual}"
            )
        mapping = Mapping(virtual, physical_base, writable, label)
        self._mappings.insert(i, mapping)
        self._ends.insert(i, virtual.end)
        return mapping

    def unmap(self, virtual: AddressRange) -> None:
        i = bisect_right(self._ends, virtual.base)
        if i < len(self._mappings) and self._mappings[i].virtual == virtual:
            del self._mappings[i]
            del self._ends[i]
            return
        raise TranslationError(f"{self.name}: no mapping at {virtual}")

    def lookup(self, vaddr: int, length: int = 1) -> Mapping:
        # One candidate, as in AddressMap.resolve: the first mapping that
        # ends past the access's first byte.
        i = bisect_left(self._ends, vaddr + (1 if length > 0 else length))
        if i < len(self._ends):
            m = self._mappings[i]
            if m.virtual.base <= vaddr:
                if vaddr + length <= m.virtual.end:
                    return m
                raise TranslationError(
                    f"{self.name}: access {vaddr:#x}+{length} straddles {m.virtual}"
                )
        raise TranslationError(f"{self.name}: translation fault at {vaddr:#x}")

    def translate(self, vaddr: int, length: int = 1, *, write: bool = False) -> int:
        m = self.lookup(vaddr, length)
        if write and not m.writable:
            raise TranslationError(f"{self.name}: write to read-only {m.virtual}")
        return m.physical_base + (vaddr - m.virtual.base)

    def try_translate(self, vaddr: int, length: int = 1) -> Optional[int]:
        try:
            return self.translate(vaddr, length)
        except TranslationError:
            return None

    @property
    def mappings(self) -> list[Mapping]:
        return list(self._mappings)

    def __len__(self) -> int:
        return len(self._mappings)
