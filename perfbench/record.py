#!/usr/bin/env python3
"""Record ``reference.json``: every unit's simulated outputs.

    python3 perfbench/record.py

Runs each workload's units once (the service units once per arrival
variant) and refuses to record a unit whose own correctness verdict is
false.  The benchmark's tests check the recorded ping-pong latencies
against ``BENCH_EXTOLL_LATENCY.json`` / ``BENCH_IB_LATENCY.json``.
Re-record only when a change is meant to alter simulated results.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from units import ARRIVAL_VARIANTS, WORKLOADS  # noqa: E402

#: Fields that hold a unit's own correctness verdict.
VERDICTS = ("correct", "steps_at_closed_form", "verified")


def record() -> dict:
    units = {}
    for workload, factory in WORKLOADS.items():
        seeds = range(ARRIVAL_VARIANTS) if workload == "service-open" \
            else (0,)
        for seed in seeds:
            for unit in factory(seed):
                unit.build()
                if unit.connect is not None:
                    unit.connect()
                unit.drive()
                out = unit.outputs()
                bad = [k for k in VERDICTS if out.get(k) is False]
                if bad:
                    raise SystemExit(f"{unit.uid}: {bad} false; not recorded")
                units[unit.uid] = out
                print(f"recorded {unit.uid}", file=sys.stderr)
    return units


def main() -> int:
    path = HERE / "reference.json"
    path.write_text(json.dumps({"units": record()}, indent=1,
                               sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
