#!/usr/bin/env python3
"""Host wall-clock benchmark of the put/get simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process runs one workload (see ``units.WORKLOADS``).  It repeats passes
over the workload's units back to back, a closed loop in host time, for
about ``--seconds`` seconds (at least three passes).  Every unit's simulated
outputs are checked against ``reference.json``; a unit that raises or
differs is failed, and a pass with a failed unit contributes no timing.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
``wall_s``, ``setup_s`` and ``peak_rss_mib``.  With ``--trace 1`` the same
untraced passes are followed by one pass under ``cProfile``, the line
reports the per-layer metrics, and the benchmark-side spans are written to
``perfbench/out/``.  README.md defines every metric.

Exit codes: 0 when every unit matched its reference, 1 when a unit failed,
2 for a usage error or a checkout without the simulator's source.
"""

from __future__ import annotations

import argparse
import cProfile
import ctypes
import gc
import json
import math
import os
import pstats
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from calibrate import REFERENCE_S, Calibrator
from layers import LAYERS, Spans, layer_self_times

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

WORKLOAD_NAMES = ("paper-pingpong", "fabric-ring", "fabric-bulk",
                  "service-open")
DEFAULT_SEED = 1
MIN_PASSES = 3
#: Calibration runs after a drive last at least this share of its time.
CALIBRATION_SHARE = 0.05
HASH_SEED = "0"
ADDR_NO_RANDOMIZE = 0x0040000
#: Fresh-interpreter imports timed for ``setup_s``; the first one, which
#: may compile bytecode, is discarded.
IMPORT_SAMPLES = 9
#: Times ``import units`` (the simulator modules the units use) between
#: two calibrations in a fresh interpreter; prints seconds and calibration.
_IMPORT_PROBE = """\
from calibrate import Calibrator
import time
calibrate = Calibrator()
calibrate()
before = calibrate()
start = time.perf_counter()
import units
seconds = time.perf_counter() - start
print(seconds, (before + calibrate()) / 2)
"""

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
COUNTERS = ("gpu.instructions_executed", "gpu.sysmem_read_transactions",
            "gpu.l2_read_hits", "extoll.wr_posts", "ib.doorbells",
            "network.packets", "network.credit_stalls",
            "network.stall_time_us", "engine.doorbells", "engine.wrs",
            "triggered.chains_fired", "workloads.requests",
            "workloads.verified", "sim.events")
#: Benchmark-side span names; each is also a ``bench.<phase>_s`` metric.
PHASES = ("import", "calibrate", "build", "connect", "drive", "verify")


def per_layer_units() -> dict:
    units = {f"{layer}.self_s": "s" for layer in (*LAYERS, "other")}
    units.update({"trace.wall_s": "s", "trace.overhead_pct": "%"})
    units.update({f"bench.{phase}_s": "s" for phase in PHASES})
    units.update({name: "count" for name in COUNTERS})
    units.update({"network.stall_time_us": "us",
                  "sim.host_ns_per_event": "ns",
                  "gpu.sysmem_reads_per_msg": "1/msg"})
    return units


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error(f"--seconds must be >= 1, got {args.seconds}")
    return args


def measure_import():
    """Median seconds a fresh interpreter takes to import the simulator
    modules the units use: (unscaled, scaled to the reference speed)."""
    env = dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{HERE}")
    raw, scaled = [], []
    for _ in range(IMPORT_SAMPLES + 1):
        done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE],
                              capture_output=True, text=True, env=env,
                              cwd=HERE, timeout=120, check=True)
        seconds, calibration = map(float, done.stdout.split())
        raw.append(seconds)
        scaled.append(seconds * REFERENCE_S / calibration)
    return statistics.median(raw[1:]), statistics.median(scaled[1:])


def mismatch(outputs: dict, expected) -> str:
    """Why ``outputs`` differs from the reference, or '' if it does not."""
    if expected is None:
        return "no recorded reference"
    keys = sorted(k for k in outputs.keys() | expected.keys()
                  if outputs.get(k) != expected.get(k))
    return f"differs from reference in {keys}" if keys else ""


class Runner:
    """Runs passes over one workload's units and keeps their spans."""

    def __init__(self, factory, seed: int, reference: dict) -> None:
        self.factory, self.seed, self.reference = factory, seed, reference
        self.spans = Spans()
        self.calibrator = Calibrator()
        self.attempted = self.failed = 0
        self.errors = []
        #: Per untraced pass whose units all succeeded: phase -> seconds
        #: summed over the units, "<phase>.scaled" -> the same scaled to
        #: the reference host speed, "calibrate" -> the mean calibration.
        self.passes = []
        self.counts = {}
        #: The calibration after the last drive; it also brackets the next
        #: unit from before.
        self._last_calibration = None

    def run_pass(self, profile=None) -> float:
        """One pass over fresh units; returns the summed drive seconds.
        A profiled pass, or one with a failed unit, adds no timing."""
        sums, calibrations, counts = defaultdict(float), [], defaultdict(int)
        failed = self.failed
        units = self.factory(self.seed)
        with self.spans.span("pass"):
            while units:
                # Free the previous unit's cluster first, so neither the
                # peak RSS nor a collection inside a timed call depends on
                # what ran before.
                unit = None
                gc.collect()
                unit = units.pop(0)
                self.attempted += 1
                try:
                    why = self._run_unit(unit, profile, sums, calibrations,
                                         counts)
                except Exception as exc:  # a raising unit is a failed unit
                    self._last_calibration = None
                    why = f"{type(exc).__name__}: {exc}"
                if why:
                    self.failed += 1
                    self.errors.append(f"{unit.uid}: {why}")
        if self.failed == failed and calibrations:
            self.counts = dict(counts)
            if profile is None:
                sums["calibrate"] = statistics.fmean(calibrations)
                self.passes.append(dict(sums))
        return sums["drive"]

    def _run_unit(self, unit, profile, sums, calibrations, counts) -> str:
        spans, uid = self.spans, unit.uid
        with spans.span("unit", uid):
            before, self._last_calibration = self._last_calibration, None
            if before is None:
                before = self._calibrate(uid)
            times = {}
            with spans.span("build", uid) as build:
                unit.build()
            times["build"] = build["end"] - build["start"]
            if unit.connect is not None:
                with spans.span("connect", uid) as connect:
                    unit.connect()
                times["connect"] = connect["end"] - connect["start"]
            with spans.span("drive", uid) as drive:
                if profile is not None:
                    profile.enable()
                try:
                    unit.drive()
                finally:
                    if profile is not None:
                        profile.disable()
            times["drive"] = drive["end"] - drive["start"]
            self._last_calibration = self._calibrate(uid, times["drive"])
            calibration = (before + self._last_calibration) / 2
            calibrations.append(calibration)
            for phase, seconds in times.items():
                sums[phase] += seconds
                sums[f"{phase}.scaled"] += seconds * REFERENCE_S / calibration
            with spans.span("verify", uid) as verify:
                why = mismatch(unit.outputs(), self.reference.get(uid))
                for name, value in unit.counts().items():
                    counts[name] += value
            sums["verify"] += verify["end"] - verify["start"]
        return why

    def _calibrate(self, uid: str, scaled_seconds: float = 0.0) -> float:
        """Seconds per calibration, repeated for at least
        ``CALIBRATION_SHARE`` of the time it will scale."""
        runs = max(1, math.ceil(CALIBRATION_SHARE * scaled_seconds
                                / REFERENCE_S))
        with self.spans.span("calibrate", uid):
            return self.calibrator(runs)

    def median(self, phase: str) -> float:
        """Median over the passes of ``phase`` seconds summed over units."""
        return statistics.median(p.get(phase, 0.0) for p in self.passes)

    def scaled(self, phase: str) -> float:
        """Mean over the passes of ``phase`` seconds summed over units,
        each unit's seconds scaled to the reference host speed by the two
        calibrations that bracket it.  The mean, not the median: a run has
        as few as three passes, and the scaling already absorbs the slow
        passes that a median would discard."""
        return statistics.fmean(p.get(f"{phase}.scaled", 0.0)
                                for p in self.passes)

    @property
    def correct(self) -> bool:
        # A run that completed no unit proves nothing: it is a failure.
        return self.attempted > 0 and self.failed == 0


def measure(runner: Runner, seconds: int) -> None:
    """Untraced passes for about ``seconds`` seconds, at least
    ``MIN_PASSES``; stops after a pass with a failed unit."""
    start = time.perf_counter()
    pass_times = []
    while True:
        t0 = time.perf_counter()
        runner.run_pass()
        pass_times.append(time.perf_counter() - t0)
        if runner.failed:
            return
        elapsed = time.perf_counter() - start
        if (len(pass_times) >= MIN_PASSES
                and elapsed + statistics.median(pass_times) > seconds):
            return


def end_to_end_metrics(runner: Runner, imports) -> dict:
    return {
        "wall_s": runner.scaled("drive"),
        "setup_s": imports[1] + runner.scaled("build")
        + runner.scaled("connect"),
        "peak_rss_mib":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_metrics(runner: Runner, imports) -> dict:
    wall = runner.median("drive")
    profile = cProfile.Profile()
    traced = runner.run_pass(profile=profile)
    metrics = {f"{layer}.self_s": value for layer, value in
               layer_self_times(pstats.Stats(profile), traced).items()}
    metrics["trace.wall_s"] = traced
    metrics["trace.overhead_pct"] = 100.0 * (traced - wall) / wall
    metrics["bench.import_s"] = imports[0]
    for phase in PHASES[1:]:
        metrics[f"bench.{phase}_s"] = runner.median(phase)
    counts = runner.counts
    for name in COUNTERS:
        metrics[name] = counts.get(name, 0)
    events = counts.get("sim.events", 0)
    metrics["sim.host_ns_per_event"] = (
        runner.scaled("drive") / events * 1e9 if events else 0.0)
    messages = counts.get("messages", 0)
    metrics["gpu.sysmem_reads_per_msg"] = (
        counts.get("gpu.sysmem_read_transactions", 0) / messages
        if messages else 0.0)
    return metrics


def write_spans(runner: Runner, args, metrics: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({"workload": args.workload,
                                "seed": args.seed,
                                "spans": runner.spans.records,
                                "per_layer": metrics}, indent=1))
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator source at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        imports = measure_import()
        from units import WORKLOADS
    except (subprocess.SubprocessError, ImportError, ValueError) as exc:
        print(f"perfbench: cannot import the simulator: {exc}",
              file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text())["units"]

    runner = Runner(WORKLOADS[args.workload], args.seed, reference)
    measure(runner, args.seconds)
    units = per_layer_units() if args.trace else END_TO_END_UNITS
    metrics = dict.fromkeys(units, 0.0)
    if runner.correct:
        metrics = (traced_metrics(runner, imports) if args.trace
                   else end_to_end_metrics(runner, imports))
    ok = runner.correct             # the traced pass checks its units too
    if ok and args.trace:
        print(f"spans: {write_spans(runner, args, metrics)}")
    for error in runner.errors:
        print(f"FAILED {error}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name:32s} {value:16.6f} {units[name]}")
    if ok and not args.trace:
        print(f"{'(unscaled drive_s)':32s} {runner.median('drive'):16.6f} s")
        print(f"{'(calibrate_s)':32s} {runner.median('calibrate'):16.6f} s")
    fail_frac = (runner.failed / runner.attempted if runner.attempted
                 else 1.0)
    print(f"{'fail_frac':32s} {fail_frac:16.6f} "
          f"({runner.failed}/{runner.attempted} units)")
    print(json.dumps({
        "correct": ok, "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if ok else 1


def pin_process_layout() -> None:
    """Re-exec this script once with a fixed string-hash seed and, where
    the host allows it, without address-space randomisation.  Both move
    the peak RSS of the same units by several MiB from run to run (object
    ids feed hashes and layouts).  exec replaces this process, so no child
    is left behind."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.personality.argtypes = [ctypes.c_ulong]
    libc.personality.restype = ctypes.c_int
    persona = libc.personality(0xFFFFFFFF)        # query only
    pinned = persona != -1 and bool(persona & ADDR_NO_RANDOMIZE)
    hashed = os.environ.get("PYTHONHASHSEED") == HASH_SEED
    if pinned and hashed:
        return
    if not pinned:
        pinned = persona != -1 and \
            libc.personality(persona | ADDR_NO_RANDOMIZE) != -1
        if not pinned and hashed:
            print("perfbench: cannot disable address-space randomisation; "
                  "peak_rss_mib may vary more between runs",
                  file=sys.stderr)
            return
    os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]],
              dict(os.environ, PYTHONHASHSEED=HASH_SEED))


if __name__ == "__main__":
    pin_process_layout()
    sys.exit(main())
