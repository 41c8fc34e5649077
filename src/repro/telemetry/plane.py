"""The telemetry plane: one object that arms the whole live-metrics stack.

Construction wires the three pieces together on one simulator:

* a :class:`~repro.telemetry.FlightRecorder` installed as ``sim.tracer``
  (so models feed it spans/instants/metrics, and span durations become
  live latency histograms),
* a :class:`~repro.telemetry.Sampler` ticking on the event loop, watching
  the recorder's metrics registry out of the box (add model stats with
  :meth:`watch_stats` / :meth:`watch_counters` / :meth:`watch_gauge`),
* one :class:`~repro.telemetry.SloMonitor` per declared objective,
  evaluated live from the sampler's tick hook; an objective's FIRST breach
  trips the flight recorder, so the dump captures the spans around the
  moment service went bad.

The zero-cost story mirrors :class:`~repro.sim.trace.NullTracer`: a
simulation that never constructs a plane keeps ``NULL_TRACER`` and pays
nothing — not an event, not a branch.  The plane is opt-in per run
(``python -m repro monitor``), never ambient.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from ..sim import Simulator
from .recorder import DEFAULT_CATEGORIES, DEFAULT_TRIGGERS, FlightRecorder
from .sampler import Sampler
from .slo import Objective, SloMonitor, render_verdicts


class TelemetryPlane:
    """Live telemetry for one simulator: sampler + SLOs + flight recorder."""

    def __init__(self, sim: Simulator, interval: float = 5e-6,
                 capacity: int = 4096,
                 objectives: Iterable[Objective] = (),
                 recorder_capacity: int = 512,
                 triggers: Iterable[str] = DEFAULT_TRIGGERS,
                 span_categories: Optional[Iterable[str]] = DEFAULT_CATEGORIES,
                 short_windows: int = 5) -> None:
        self.sim = sim
        self.recorder = FlightRecorder(capacity=recorder_capacity,
                                       triggers=triggers,
                                       categories=span_categories)
        sim.set_tracer(self.recorder)
        self.sampler = Sampler(sim, interval=interval, capacity=capacity)
        self.sampler.watch_registry(self.recorder.metrics)
        self._short_windows = short_windows
        self.monitors: List[SloMonitor] = [
            SloMonitor(o, short_windows) for o in objectives]
        self.dumps: List[dict] = []
        self.recorder.on_trip.append(lambda _reason, dump:
                                     self.dumps.append(dump))
        self.sampler.on_tick.append(self._evaluate)

    # -- wiring ----------------------------------------------------------------
    def add_objective(self, objective: Objective) -> SloMonitor:
        monitor = SloMonitor(objective, self._short_windows)
        self.monitors.append(monitor)
        return monitor

    def watch_stats(self, prefix: str, obj: object) -> None:
        self.sampler.watch_stats(prefix, obj)

    def watch_counters(self, prefix: str,
                       fn: Callable[[], Dict[str, float]]) -> None:
        self.sampler.watch_counters(prefix, fn)

    def watch_gauge(self, name: str, fn: Callable[[], float]) -> None:
        self.sampler.watch_gauge(name, fn)

    def watch_triggered(self, unit) -> None:
        """Chain/counter activity of one node's triggered-operations unit
        (→ ``trig.{node}.*`` series, ``armed`` as a gauge)."""
        self.watch_stats(f"trig.n{unit.node.node_id}", unit.stats)

    def watch_mpi(self, comm) -> None:
        """The MPI layer's aggregated protocol counters plus every rank's
        matching queues (→ ``mpi.*`` and ``mpi.rank{r}.match.*`` series)."""
        self.watch_stats("mpi", comm)
        for rank in comm.ranks:
            self.watch_stats(f"mpi.rank{rank.rank}.match", rank.matcher)

    def watch_workloads(self, run) -> None:
        """The traffic generator's request accounting (→ ``workload.*``
        series; ``queue_depth`` and ``inflight`` as gauges) plus, for the
        engine control mode, the posting path's doorbell counters."""
        self.watch_stats("workload", run.stats)
        if getattr(run.transport, "engine_stats", None) is not None \
                and run.transport.mode == "engine":
            self.watch_stats("workload.engine", run.transport.engine_stats)

    def watch_fabrics(self, instance) -> None:
        """A scale-out fabric's congestion accounting (→ aggregate
        ``fabric.stalls`` / ``fabric.stall_time`` / ``fabric.bytes``
        series plus per-link ``fabric.link.{a}-{b}.bytes``, and a live
        ``fabric.in_flight`` gauge of credits currently held).  The
        counters come straight from every link's
        :class:`~repro.network.link.FlowState`, so a rising
        ``rate:fabric.stalls`` is credit backpressure, not a model
        artifact — the SLO hook the ``fabrics`` monitor preset binds."""
        links = sorted(instance.net.links().items())

        def read() -> Dict[str, float]:
            stats = instance.flow_stats()
            out = {"fabric.stalls": float(stats["stalls"]),
                   "fabric.stall_time": stats["stall_time"]}
            total = 0.0
            for (a, b), link in links:
                sent = float(sum(link.bytes_sent))
                out[f"fabric.link.{a}-{b}.bytes"] = sent
                total += sent
            out["fabric.bytes"] = total
            return out

        self.watch_counters("", read)
        self.watch_gauge("fabric.in_flight",
                         lambda: float(instance.flow_stats()["in_flight"]))

    def watch_fabric(self, fabric, bandwidth: Optional[float] = None) -> None:
        """Per-link wire-byte counters (→ ``link.{a}-{b}.bytes`` series);
        with ``bandwidth`` also a ``link.{a}-{b}.util`` gauge in [0, 1]."""
        links = sorted(fabric.links().items())

        def read() -> Dict[str, float]:
            return {f"link.{a}-{b}.bytes": sum(link.bytes_sent)
                    for (a, b), link in links}

        self.watch_counters("", read)
        if bandwidth:
            # Utilization is the counter's window rate over capacity; the
            # summary renderer computes it from the bytes series, so the
            # plane records bandwidth once for it to find.
            self.link_bandwidth = bandwidth

    # -- lifecycle --------------------------------------------------------------
    def start(self) -> None:
        self.sampler.start()

    def stop(self) -> None:
        self.sampler.stop()

    # -- live SLO evaluation ------------------------------------------------------
    def _evaluate(self, sampler: Sampler, t: float) -> None:
        for monitor in self.monitors:
            ok = monitor.observe(sampler, t)
            if ok is False and monitor.breaches == 1:
                # First breach of this objective: capture the black box.
                self.recorder.trip(f"slo:{monitor.objective.name}",
                                   detail=monitor.verdict())

    # -- reporting ----------------------------------------------------------------
    def verdicts(self) -> List[dict]:
        return [m.verdict() for m in self.monitors]

    @property
    def breached(self) -> bool:
        return any(v["status"] == "breach" for v in self.verdicts())

    def report(self) -> dict:
        return {
            "interval": self.sampler.interval,
            "ticks": self.sampler.ticks,
            "series": self.sampler.bank.names(),
            "histograms": self.sampler.histogram_names(),
            "objectives": self.verdicts(),
            "trips": list(self.recorder.trips),
            "dumps": len(self.dumps),
        }

    def render(self) -> str:
        lines = [f"telemetry: {self.sampler.ticks} samples @ "
                 f"{self.sampler.interval * 1e6:g}us, "
                 f"{len(self.sampler.bank)} series, "
                 f"{len(self.sampler.histogram_names())} histograms"]
        if self.monitors:
            lines.append("")
            lines.append(render_verdicts(self.verdicts()))
        if self.recorder.trips:
            lines.append("")
            lines.append("flight recorder trips:")
            for trip in self.recorder.trips:
                lines.append(f"  [{trip['time'] * 1e6:12.3f}us] "
                             f"{trip['reason']}")
        return "\n".join(lines)
