"""``python -m repro fabrics`` — scale-out fabric sweeps + canaries.

Default: run the acceptance sweep (topology x N x algorithm all-reduce
matrix plus the verdict battery: bit-exactness, closed-form step counts,
ring->halving crossover, zero-cost credits, permutation deadlock
freedom, adaptive replay, trace reconcile, credit blame) and print the
crossover tables.  Exit non-zero if any verdict fails.

``--force-congestion`` runs only the congestion canary: a causally
traced recursive-halving all-reduce under ``credits=1`` whose critical
paths must contain ``blocked-on-credit`` segments — the CI check that
congestion is *attributable*, not just simulated.

Examples::

    python -m repro fabrics --quick                # CI smoke (N=16,32)
    python -m repro fabrics --nodes 64,128,256,512 # the paper-scale sweep
    python -m repro fabrics --topologies torus --algorithms ring,rh
    python -m repro fabrics --force-congestion
    python -m repro fabrics --quick --json out.json
"""

from __future__ import annotations

import argparse
import json
import sys

from ..errors import NetworkError
from .routing import ROUTINGS
from .sweep import (SweepConfig, forced_congestion_blame, render_report,
                    run_sweep)
from .topology import TOPOLOGY_KINDS, check_nodes


def _csv(parser, text: str, what: str, allowed=None):
    values = [v.strip() for v in text.split(",") if v.strip()]
    if not values:
        parser.error(f"empty {what} list")
    if allowed is not None:
        for v in values:
            if v not in allowed:
                parser.error(f"unknown {what} {v!r} "
                             f"(choose from: {', '.join(allowed)})")
    return tuple(values)


def _node_counts(parser, text: str, topologies):
    try:
        values = tuple(int(v) for v in text.split(",") if v.strip())
    except ValueError:
        parser.error(f"bad node count list {text!r}")
    if not values:
        parser.error("empty node count list")
    for kind in topologies:
        for n in values:
            try:
                check_nodes(kind, n)
            except NetworkError as exc:
                parser.error(f"--nodes: {exc}")
    return values


#: Values of the sweep flags left unset, and the ``--quick`` overrides.
_DEFAULTS = {"topologies": ",".join(TOPOLOGY_KINDS),
             "algorithms": "ring,rh,tree", "nodes": "64,128", "elems": 4,
             "iterations": 3}
_QUICK = {"nodes": "16,32", "iterations": 2}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro fabrics",
        description="Hierarchical scale-out fabrics: topology-aware "
                    "collectives, credit congestion, acceptance verdicts.")
    parser.add_argument("--topologies", default=None,
                        help=f"comma-separated topology kinds (default: "
                             f"{_DEFAULTS['topologies']})")
    parser.add_argument("--algorithms", default=None,
                        help="comma-separated all-reduce schedules "
                             f"(default: {_DEFAULTS['algorithms']})")
    parser.add_argument("--nodes", default=None,
                        help="comma-separated power-of-two rank counts "
                             f"(default: {_DEFAULTS['nodes']}; the "
                             "paper-scale run is 64,128,256,512)")
    parser.add_argument("--elems", type=int, default=None,
                        help="vector elements per rank "
                             f"(default: {_DEFAULTS['elems']})")
    parser.add_argument("--iterations", type=int, default=None,
                        help="measured rounds per point "
                             f"(default: {_DEFAULTS['iterations']})")
    parser.add_argument("--routing", default="minimal", choices=ROUTINGS,
                        help="dragonfly inter-group routing "
                             "(default: minimal)")
    parser.add_argument("--seed", type=int, default=1,
                        help="simulator seed (default: 1)")
    parser.add_argument("--quick", action="store_true",
                        help="small sweep for CI smoke runs (N=16,32, "
                             "2 iterations); explicit flags still win")
    parser.add_argument("--force-congestion", action="store_true",
                        help="run ONLY the forced-congestion canary and "
                             "require blocked-on-credit in the blame")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the full report as JSON")
    args = parser.parse_args(argv)
    # Presets fill only the flags left unset: explicit flags always win.
    presets = {**_DEFAULTS, **(_QUICK if args.quick else {})}
    for name, value in presets.items():
        if getattr(args, name) is None:
            setattr(args, name, value)
    if args.elems < 1:
        parser.error(f"--elems must be >= 1, got {args.elems}")

    topologies = _csv(parser, args.topologies, "topology", TOPOLOGY_KINDS)
    cfg = SweepConfig(
        topologies=topologies,
        algorithms=_csv(parser, args.algorithms, "algorithm",
                        ("ring", "rh", "tree")),
        nodes=_node_counts(parser, args.nodes, topologies),
        elems_per_rank=args.elems, iterations=args.iterations,
        seed=args.seed, routing=args.routing)

    if args.force_congestion:
        share = forced_congestion_blame(cfg)
        ok = share > 0
        print(f"forced congestion canary: blocked-on-credit share "
              f"{share * 100:.2f}% {'OK' if ok else 'MISSING'}")
        if args.json:
            with open(args.json, "w") as fh:
                json.dump({"blocked_on_credit_share": share, "ok": ok},
                          fh, indent=2)
        return 0 if ok else 1

    report = run_sweep(cfg, progress=lambda m: print(f"  {m}",
                                                     file=sys.stderr))
    print(render_report(report))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
        print(f"report -> {args.json}")
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
