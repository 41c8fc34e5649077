"""The benchmark's workloads, as lists of units.

A unit builds its own cluster or fabric, sets up its connections, runs one
public driver of the simulator, and reports two things afterwards:

* ``outputs()`` — the driver's simulated results, compared exactly with the
  recorded reference (``reference.json``).  Event counts are deliberately
  not outputs: a change that fast-forwards poll loops may lower them.
* ``counts()`` — work counters read from public attributes, summed per pass
  into the per-layer metrics.

Each phase (``build``, ``connect``, ``drive``) is one call into the program,
so the runner can time and profile exactly the public call it wraps.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable, Dict, List

from repro.cluster import build_extoll_cluster, build_ib_cluster
from repro.core import (ExtollMode, IbMode, run_extoll_pingpong,
                        run_ib_pingpong, setup_extoll_connection,
                        setup_ib_connection)
from repro.fabrics import build_topology, instantiate, run_collective
from repro.fabrics.collective import expected_phases, expected_steps
from repro.fabrics.topology import FabricConfig
from repro.sim import Simulator
from repro.units import KIB
from repro.workloads.generator import WorkloadRun

#: Iterations and warm-up of the ``extoll-latency``/``ib-latency`` bench
#: scenarios, so every ping-pong point is the one their baselines record.
PINGPONG_ITERATIONS, PINGPONG_WARMUP = 10, 2

#: Offered load as a share of the service rate: the simulated queues build.
OFFERED_FRACTION = 0.9
SERVICE_REQUESTS = 64

#: The workload seed picks one of this many recorded Poisson arrival
#: streams, so every seed has a reference for its percentiles.
ARRIVAL_VARIANTS = 16

ROOT = Path(__file__).resolve().parent.parent

GPU_COUNTERS = ("instructions_executed", "sysmem_read_transactions",
                "l2_read_hits")


def _gpu_counts(cluster) -> Dict[str, int]:
    return {f"gpu.{name}": sum(getattr(node.gpu.counters, name)
                               for node in cluster.nodes)
            for name in GPU_COUNTERS}


class PingPong:
    """One point of the paper's Fig. 1a (EXTOLL) or Fig. 4a (IB) grid."""

    def __init__(self, fabric: str, mode, size: int, seed: int) -> None:
        self.fabric, self.mode, self.size, self.seed = fabric, mode, size, seed
        self.uid = f"{fabric}/{mode.value}/{size}B"

    def build(self) -> None:
        self.sim = Simulator(seed=self.seed)
        build = build_extoll_cluster if self.fabric == "extoll" \
            else build_ib_cluster
        self.cluster = build(sim=self.sim)

    def connect(self) -> None:
        buf = max(self.size, 4 * KIB)
        if self.fabric == "extoll":
            self.conn = setup_extoll_connection(self.cluster, buf)
        else:
            location = "host" if self.mode is IbMode.BUF_ON_HOST else "gpu"
            self.conn = setup_ib_connection(self.cluster, buf, location)

    def drive(self) -> None:
        run = run_extoll_pingpong if self.fabric == "extoll" \
            else run_ib_pingpong
        self.point = run(self.cluster, self.conn, self.mode, self.size,
                         iterations=PINGPONG_ITERATIONS,
                         warmup=PINGPONG_WARMUP)

    def outputs(self) -> dict:
        p = self.point
        return {"latency": p.latency, "post_time": p.post_time,
                "poll_time": p.poll_time}

    def counts(self) -> Dict[str, int]:
        out = _gpu_counts(self.cluster)
        nic = "extoll.wr_posts" if self.fabric == "extoll" else "ib.doorbells"
        attr = "wr_posts" if self.fabric == "extoll" else "doorbells"
        out[nic] = sum(getattr(node.nic, attr) for node in self.cluster.nodes)
        # A ping and a pong per iteration, warm-up included.
        out["messages"] = 2 * (PINGPONG_ITERATIONS + PINGPONG_WARMUP)
        out["sim.events"] = self.sim.events_processed
        return out


class FabricAllReduce:
    """One all-reduce over an N-host scale-out fabric."""

    def __init__(self, kind: str, n: int, algorithm: str, elems: int,
                 credits, seed: int) -> None:
        self.kind, self.n, self.algorithm = kind, n, algorithm
        self.elems, self.credits, self.seed = elems, credits, seed
        self.uid = (f"{kind}/N{n}/{algorithm}/{elems}el/"
                    f"credits-{credits or 'off'}")

    def build(self) -> None:
        self.sim = Simulator(seed=self.seed)
        self.topology = build_topology(self.kind, self.n)

    def connect(self) -> None:
        self.instance = instantiate(self.sim, self.topology,
                                    FabricConfig(credits=self.credits))

    def drive(self) -> None:
        self.result = run_collective(self.instance, self.algorithm,
                                     elems_per_rank=self.elems, iterations=1)

    def outputs(self) -> dict:
        r = self.result
        return {"times": list(r.times),
                "digest_sha256": hashlib.sha256(r.digest).hexdigest(),
                "correct": r.correct,
                "steps": r.steps, "phases": r.phases,
                "steps_at_closed_form":
                    r.steps == expected_steps(self.algorithm, self.n)
                    and r.phases == expected_phases(self.algorithm, self.n),
                "packets": r.packets, "stalls": r.stalls,
                "stall_time": r.stall_time}

    def counts(self) -> Dict[str, int]:
        r = self.result
        return {"network.packets": r.packets,
                "network.credit_stalls": r.stalls,
                "network.stall_time_us": r.stall_time * 1e6,
                "sim.events": self.sim.events_processed}


class ServiceRun:
    """One open-loop Poisson run of a service workload over 4 nodes."""

    def __init__(self, workload: str, mode: str, service_rate: float,
                 seed: int) -> None:
        self.workload, self.mode, self.seed = workload, mode, seed
        self.rate = OFFERED_FRACTION * service_rate
        self.arrival_seed = seed % ARRIVAL_VARIANTS
        self.uid = f"{workload}/{mode}/open-poisson/a{self.arrival_seed}"

    def build(self) -> None:
        # The constructor builds the 4-node cluster and the transport's
        # channels in one public call; there is no separate connect step.
        self.run = WorkloadRun(self.workload, self.mode, nodes=4, size=256,
                               requests=SERVICE_REQUESTS, loop="open",
                               rate=self.rate, seed=self.arrival_seed,
                               sim=Simulator(seed=self.seed))

    connect = None

    def drive(self) -> None:
        self.result = self.run.execute()

    def outputs(self) -> dict:
        r = self.result
        return {"verified": r.verified, "completed": r.stats.completed,
                "p50": r.p50, "p99": r.p99}

    def counts(self) -> Dict[str, int]:
        run, transport = self.run, self.run.transport
        out = _gpu_counts(run.cluster)
        out["extoll.wr_posts"] = sum(node.nic.wr_posts
                                     for node in run.cluster.nodes)
        stats = transport.engine_stats
        out["engine.doorbells"] = stats.doorbells
        out["engine.wrs"] = stats.wrs
        messages = stats.messages
        if transport.mpi is not None:
            snap = transport.mpi.snapshot()
            out["triggered.chains_fired"] = snap["chains_fired"]
            messages += snap["eager_sent"] + snap["rndv_sent"]
        out["messages"] = messages
        out["workloads.requests"] = self.result.stats.completed
        out["workloads.verified"] = self.result.stats.verified
        out["sim.events"] = run.sim.events_processed
        return out


def _paper_pingpong(seed: int) -> list:
    units = [PingPong("extoll", mode, size, seed)
             for mode in ExtollMode for size in (64, 4 * KIB, 64 * KIB)]
    units += [PingPong("ib", mode, size, seed)
              for mode in IbMode for size in (64, 4 * KIB)]
    return units


def _fabric_ring(seed: int) -> list:
    return [FabricAllReduce("fat-tree", 64, "ring", 4, None, seed)]


def _fabric_bulk(seed: int) -> list:
    return [FabricAllReduce("torus", 64, "rh", 256, 1, seed)]


def service_rate(workload: str, mode: str) -> float:
    """The closed-loop service rate (simulated req/s) that
    ``BENCH_WORKLOAD_<WORKLOAD>.json`` records for ``mode``."""
    path = ROOT / f"BENCH_WORKLOAD_{workload.upper()}.json"
    metrics = json.loads(path.read_text())["metrics"]
    return metrics[f"{mode}/service_rate_per_s"]["value"]


def _service_open(seed: int) -> list:
    return [ServiceRun(workload, mode, service_rate(workload, mode), seed)
            for workload, mode in (("moe", "engine"), ("kvcache", "mpi"))]


#: Workload name -> factory of fresh units for one pass, given the seed.
WORKLOADS: Dict[str, Callable[[int], List]] = {
    "paper-pingpong": _paper_pingpong,
    "fabric-ring": _fabric_ring,
    "fabric-bulk": _fabric_bulk,
    "service-open": _service_open,
}
