"""PCIe transaction-layer packets (TLPs) — the timing currency of the fabric.

Only the properties that matter for throughput/latency are modeled: kind,
size, and routing.  Payload bytes move functionally at delivery time.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field


class TlpKind(enum.Enum):
    MEM_WRITE = "MWr"        # posted
    MEM_READ = "MRd"         # non-posted, answered by a completion
    COMPLETION = "CplD"      # completion with data


# Gen2/Gen3-era framing overhead per TLP: 12-16 B header + 8 B framing/seq/CRC.
TLP_OVERHEAD_BYTES = 24

_seq = itertools.count()


@dataclass(frozen=True)
class Tlp:
    """One transaction-layer packet."""

    kind: TlpKind
    address: int
    length: int                       # payload bytes (0 for read requests)
    requester: str = ""               # port name, for completions/debug
    tag: int = field(default_factory=lambda: next(_seq))

    @property
    def wire_bytes(self) -> int:
        """Bytes occupying the link, including framing overhead."""
        return TLP_OVERHEAD_BYTES + self.length

    def trace_attrs(self) -> dict:
        """Key/value attributes identifying this TLP on a trace span."""
        return {"kind": self.kind.value, "addr": hex(self.address),
                "bytes": self.length, "tag": self.tag}

    def __str__(self) -> str:
        return f"{self.kind.value}@{self.address:#x}+{self.length}"

