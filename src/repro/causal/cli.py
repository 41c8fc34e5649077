"""``python -m repro critpath`` — causal critical paths per request.

Scenarios::

    pingpong    2-node request/echo rounds, every control mode
    allreduce   N-node ring all-reduce, every control mode
    mpi         rendezvous-sized all-reduce on the triggered-MPI path only
    workloads   one app-suite workload (--workload) across control modes

Each (workload, mode) cell runs a closed-loop :class:`WorkloadRun` under
a causal-enabled :class:`~repro.obs.SpanTracer`, assembles the
happens-before DAG, extracts every request's critical path, and prints
blame tables plus the per-rank straggler view.  Gates, runnable from CI:

* ``--reconcile`` — every request's path must telescope to the measured
  service time at EXACTLY 0%% relative error, with a category partition
  residual within 1e-9 s.  Exit 2 on failure.
* ``--verify`` — re-run one identical cell with the tracing disarmed
  (:class:`~repro.sim.trace.NullTracer`): the latency/service/wait
  sequences must be bit-identical — causal tracing observes, never
  perturbs.  Exit 2 on divergence.
* ``--expect-straggler R`` — every request in every cell must name rank
  ``R`` the straggler (the forced-skew canary).  Exit 2 otherwise.

``--skew RANK:INSTR`` charges extra compute on one rank (pingpong /
allreduce workloads only; any other workload, a malformed spec or a rank
outside ``[0, nodes)`` is a usage error, exit 2); ``--out DIR`` writes one annotated Chrome
trace and one waterfall per cell.
"""

from __future__ import annotations

import argparse
import json
import os
from typing import List, Optional, Tuple

from ..errors import BenchmarkError
from ..obs import SpanTracer
from ..sim import Simulator
from ..workloads.apps import WORKLOADS, get_workload
from ..workloads.generator import RunResult, WorkloadRun
from ..workloads.transport import MODES
from .critpath import RunAnalysis, analyze_run
from .export import (render_blame, render_slack, render_waterfall,
                     write_annotated_trace)

_US = 1e6

#: scenario -> (workload, nodes, size, modes).  The ``mpi`` scenario's
#: 256-byte messages sit past the 128-byte eager threshold, so its paths
#: traverse the full RTS/CTS/FIN rendezvous chain.
_SCENARIOS = {
    "pingpong": ("pingpong", 2, 64, MODES),
    "allreduce": ("allreduce", 4, 64, MODES),
    "mpi": ("allreduce", 4, 256, ("mpi",)),
    "workloads": (None, 4, 64, MODES),
}


def _run_cell(workload, mode: str, nodes: int, size: int, requests: int,
              seed: int, traced: bool,
              ) -> Tuple[RunResult, Optional[SpanTracer]]:
    sim = Simulator(seed=seed)
    tracer = None
    if traced:
        tracer = SpanTracer(sim, categories=("causal", "workload"))
        sim.set_tracer(tracer)
    run = WorkloadRun(workload, mode, nodes=nodes, size=size,
                      requests=requests, loop="closed", seed=seed, sim=sim)
    return run.execute(), tracer


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro critpath",
        description="causal critical-path analysis across the put/get "
                    "stack")
    parser.add_argument("scenario", choices=sorted(_SCENARIOS))
    parser.add_argument("--modes", default=None,
                        help="comma-separated control modes (default: the "
                             "scenario's set)")
    parser.add_argument("--nodes", type=int, default=None)
    parser.add_argument("--size", type=int, default=None)
    parser.add_argument("--requests", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", default="trainstep",
                        choices=sorted(WORKLOADS),
                        help="app workload for the 'workloads' scenario")
    parser.add_argument("--skew", default=None, metavar="RANK:INSTR",
                        help="charge extra compute on one rank (pingpong/"
                             "allreduce only)")
    parser.add_argument("--expect-straggler", type=int, default=None,
                        help="fail unless this rank is named straggler in "
                             "every request")
    parser.add_argument("--verify", action="store_true",
                        help="prove the disarmed run is bit-identical")
    parser.add_argument("--reconcile", action="store_true",
                        help="gate every path at exactly 0%% error")
    parser.add_argument("--waterfall", action="store_true",
                        help="print request 0's waterfall per cell")
    parser.add_argument("--out", default=None,
                        help="write annotated traces + waterfalls here")
    parser.add_argument("--json", action="store_true", dest="as_json")
    args = parser.parse_args(argv)

    name, nodes, size, modes = _SCENARIOS[args.scenario]
    if args.scenario == "workloads":
        name = args.workload
    nodes = args.nodes if args.nodes is not None else nodes
    size = args.size if args.size is not None else size
    if args.modes:
        modes = tuple(m.strip() for m in args.modes.split(",") if m.strip())
    unknown = [m for m in modes if m not in MODES]
    if unknown or not modes:
        parser.error(f"--modes: unknown mode(s) {', '.join(unknown)} "
                     f"(choose from: {', '.join(MODES)})")
    if args.requests < 1:
        parser.error(f"--requests must be >= 1, got {args.requests}")
    if size < 8 or size % 8:
        parser.error(f"--size must be a positive multiple of 8, got {size}")
    knobs = {}
    if args.skew:
        try:
            rank, instr = (int(v) for v in args.skew.split(":"))
        except ValueError:
            parser.error(f"--skew wants RANK:INSTR, got {args.skew!r}")
        if not 0 <= rank < nodes or instr < 0:
            parser.error(f"--skew {args.skew}: RANK must lie in [0, "
                         f"{nodes}) and INSTR must be >= 0")
        knobs = {"skew_rank": rank, "skew_instr": instr}
    try:
        workload = get_workload(name, **knobs)
    except BenchmarkError as exc:
        parser.error(str(exc))
    least = max(2, workload.min_nodes)  # a cluster is at least a pair
    if nodes < least:
        parser.error(f"--nodes must be >= {least} for {name!r}, got {nodes}")

    report: dict = {"scenario": args.scenario, "workload": name,
                    "nodes": nodes, "size": size,
                    "requests": args.requests, "seed": args.seed,
                    "modes": {}}
    failures: List[str] = []
    out_lines: List[str] = []

    for mode in modes:
        result, tracer = _run_cell(workload, mode, nodes, size,
                                   args.requests, args.seed, traced=True)
        analysis: RunAnalysis = analyze_run(tracer)
        recon = analysis.reconcile(result.service_times)
        cell = {
            "verified_results": result.verified,
            "blame_us": {c: v * _US for c, v in analysis.blame().items()},
            "blame_shares": analysis.blame_shares(),
            "reconcile": recon,
            "stragglers": {str(r): s
                           for r, s in analysis.stragglers().items()},
            "slack_us": {str(r): [v * _US for v in vals]
                         for r, vals in
                         analysis.slack_histograms().items()},
            "remote_wait_us": analysis.remote_wait() * _US,
            "hops": [len(p.segments) for p in analysis.paths],
        }

        if args.verify:
            bare, _ = _run_cell(workload, mode, nodes, size,
                                args.requests, args.seed, traced=False)
            identical = (bare.latencies == result.latencies
                         and bare.service_times == result.service_times
                         and bare.waits == result.waits)
            cell["verify_bit_identical"] = identical
            if not identical:
                failures.append(f"{mode}: disarmed run diverged — causal "
                                f"tracing perturbed the simulation")
        if args.reconcile and not recon["ok"]:
            failures.append(
                f"{mode}: reconciliation failed (max error "
                f"{recon['max_error']:.3e}, max residual "
                f"{recon['max_residual']:.3e})")
        if not result.verified:
            failures.append(f"{mode}: workload results failed verification")
        if args.expect_straggler is not None:
            wrong = {r: s for r, s in analysis.stragglers().items()
                     if s != args.expect_straggler}
            if wrong:
                failures.append(
                    f"{mode}: expected rank {args.expect_straggler} as "
                    f"straggler, got {wrong}")

        report["modes"][mode] = cell

        title = (f"{args.scenario}/{name} mode={mode} N={nodes} "
                 f"size={size}B x{args.requests}")
        out_lines.append(title)
        out_lines.append("=" * len(title))
        total = sum(p.total for p in analysis.paths)
        out_lines.append(render_blame(analysis.blame(), total))
        out_lines.append(render_slack(analysis))
        status = "exact (0%)" if recon["ok"] else "FAILED"
        out_lines.append(
            f"reconciliation: {status} over {len(analysis.paths)} "
            f"request(s), {sum(cell['hops'])} hops, partition residual "
            f"<= {recon['max_residual']:.1e}s")
        if args.verify:
            out_lines.append("disarmed replay: "
                             + ("bit-identical"
                                if cell.get("verify_bit_identical")
                                else "DIVERGED"))
        if args.waterfall:
            out_lines.append("")
            out_lines.append(render_waterfall(
                analysis.paths[0],
                title=f"critical path: request 0 ({mode})"))
        out_lines.append("")

        if args.out:
            base = os.path.join(args.out,
                                f"critpath-{args.scenario}-{mode}")
            write_annotated_trace(tracer, analysis, base + ".json")
            os.makedirs(args.out, exist_ok=True)
            with open(base + ".txt", "w", encoding="utf-8") as fh:
                for path in analysis.paths:
                    fh.write(render_waterfall(path) + "\n\n")

    if args.as_json:
        report["failures"] = failures
        print(json.dumps(report, indent=2, default=str))
    else:
        print("\n".join(out_lines).rstrip())
        if failures:
            print()
            for failure in failures:
                print(f"FAIL: {failure}")
    return 2 if failures else 0


__all__ = ["main"]
