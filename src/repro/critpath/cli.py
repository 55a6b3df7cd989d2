"""``python -m repro profile``: critical-path profile of one app run.

Runs a single application variant on a chosen grid point with the
causal profiler attached, then prints the time attribution (per-rank
buckets summing exactly to wall time), the extracted critical path with
per-edge resource decomposition, and the first-order WAN sensitivity
blame (latency traversals / bytes on path)::

    python -m repro profile asp --scale bench
    python -m repro profile water --variant unoptimized --bw 0.3 --lat 30
    python -m repro profile tsp --faults 0.01 --json
    python -m repro profile fft --out fft.trace.json   # + critical-path track

``--out`` writes a Perfetto trace with the usual rank/link/gateway
tracks plus a dedicated critical-path track (and queue-depth counters);
``--report`` appends a JSON-lines run record whose metrics section
carries the attribution buckets (``critpath.run.<bucket>_s``).
"""

from __future__ import annotations

import json
import sys
from typing import Optional

import argparse

from ..apps import app_names
from ..apps.base import SEED_HELP
from ..experiments import grids
from ..obs.report import RunReporter, run_record
from .profile import profile_app


def main(argv: Optional[list] = None) -> None:
    parser = argparse.ArgumentParser(
        prog="repro profile", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("app", choices=sorted(app_names()))
    parser.add_argument("--variant", default="optimized",
                        choices=["unoptimized", "optimized"])
    parser.add_argument("--scale", default="bench", choices=["paper", "bench"])
    parser.add_argument("--bw", type=float, default=grids.FIGURE1_BANDWIDTH,
                        help="WAN bandwidth, MByte/s per link")
    parser.add_argument("--lat", type=float, default=grids.FIGURE1_LATENCY_MS,
                        help="WAN one-way latency, ms")
    parser.add_argument("--clusters", type=int, default=grids.NUM_CLUSTERS)
    parser.add_argument("--cluster-size", type=int, default=grids.CLUSTER_SIZE)
    parser.add_argument("--wan-shape", default="full",
                        choices=["full", "star", "ring"])
    parser.add_argument("--seed", type=int, default=0, help=SEED_HELP)
    parser.add_argument("--faults", type=float, default=None, metavar="LOSS",
                        help="run under uniform WAN loss with the reliable "
                             "transport (probability, e.g. 0.01)")
    parser.add_argument("--json", action="store_true",
                        help="print the full profile as JSON instead of text")
    parser.add_argument("--top", type=int, default=8,
                        help="longest critical-path edges to list")
    parser.add_argument("--path-steps", type=int, default=50,
                        help="longest path steps to keep in JSON output")
    parser.add_argument("--out", default=None,
                        help="also write a Perfetto trace (with the "
                             "critical-path track) to this path")
    parser.add_argument("--report", default=None,
                        help="append a JSON-lines run record here")
    args = parser.parse_args(argv)

    topo = grids.multi_cluster(args.bw, args.lat, args.clusters,
                               args.cluster_size, args.wan_shape)
    faults = None
    if args.faults is not None:
        from ..faults import FaultPlan

        faults = FaultPlan.wan_loss(args.faults)

    perfetto = None
    if args.out:
        from ..obs.perfetto import PerfettoTrace

        perfetto = PerfettoTrace(topology=topo)

    result, profile = profile_app(
        args.app, args.variant, topo, scale=args.scale, seed=args.seed,
        faults=faults,
        extra_subscribers=() if perfetto is None else (perfetto,))
    path = profile.critical_path()

    meta = {"app": args.app, "variant": args.variant, "scale": args.scale,
            "bandwidth_mbyte_s": args.bw, "latency_ms": args.lat,
            "seed": args.seed, "harness": "profile"}
    if faults is not None:
        meta["wan_loss"] = args.faults

    if perfetto is not None:
        perfetto.add_critical_path(path)
        events = perfetto.write(args.out)
        print(f"wrote {events} trace events to {args.out}", file=sys.stderr)
    if args.report:
        with RunReporter(args.report) as reporter:
            reporter.emit(run_record(result.machine, result.runtime,
                                     result.wall_time, meta=meta,
                                     metrics=profile.metrics_registry()))
        print(f"wrote run report to {args.report}", file=sys.stderr)

    if args.json:
        doc = {"meta": meta, "profile": profile.to_dict(args.path_steps)}
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        print(f"=== {args.app} {args.variant} on {topo.describe()}")
        print(profile.render_text(top_edges=args.top))
        print(f"dominant bottleneck: {profile.dominant_bucket()}  "
              f"(attribution residual {profile.max_residual():.2e}s)")
