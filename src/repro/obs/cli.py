"""``python -m repro trace``: run one app fully instrumented, export traces.

Runs a single application variant on a chosen grid point with every
probe-bus subscriber attached (tracer, metrics, Perfetto exporter),
writes a Chrome/Perfetto ``trace_event`` JSON plus a JSON-lines run
report, and prints the terminal timeline with the headline metrics::

    python -m repro trace asp --scale bench
    python -m repro trace water --variant unoptimized --bw 0.3 --lat 30 \\
        --out water.trace.json --report water.report.jsonl

Load the trace at https://ui.perfetto.dev (or ``chrome://tracing``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from ..apps import app_names, run_app
from ..apps.base import SEED_HELP
from ..experiments import grids
from ..experiments.report import render_table
from ..trace import Tracer, render_timeline, utilization
from .bus import ProbeBus
from .metrics import MetricsCollector
from .perfetto import PerfettoTrace
from .report import RunReporter, run_record


def main(argv: Optional[list] = None) -> None:
    parser = argparse.ArgumentParser(
        prog="repro trace", description=__doc__,
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
    parser.add_argument("--sanitize", action="store_true",
                        help="attach the runtime protocol sanitizer "
                             "(repro.lint); prints its findings at the end")
    parser.add_argument("--width", type=int, default=72,
                        help="timeline width in character bins")
    parser.add_argument("--out", default=None,
                        help="Perfetto trace path (default <app>-<variant>.trace.json)")
    parser.add_argument("--report", default=None,
                        help="run report path (default <app>-<variant>.report.jsonl)")
    parser.add_argument("--metrics", default=None, metavar="OUT.JSON",
                        help="also dump the metrics registry snapshot "
                             "(counters/gauges/histograms) as JSON")
    args = parser.parse_args(argv)

    out_path = args.out or f"{args.app}-{args.variant}.trace.json"
    report_path = args.report or f"{args.app}-{args.variant}.report.jsonl"

    topo = grids.multi_cluster(args.bw, args.lat, args.clusters,
                               args.cluster_size, args.wan_shape)
    bus = ProbeBus()
    tracer = Tracer()
    metrics = MetricsCollector()
    perfetto = PerfettoTrace(topology=topo)
    bus.attach(tracer)
    bus.attach(metrics)
    bus.attach(perfetto)

    meta = {"app": args.app, "variant": args.variant, "scale": args.scale,
            "bandwidth_mbyte_s": args.bw, "latency_ms": args.lat,
            "harness": "trace"}
    result = run_app(args.app, args.variant, topo, scale=args.scale,
                     seed=args.seed, bus=bus, sanitize=args.sanitize)
    metrics.finalize(result.runtime)

    events = perfetto.write(out_path)
    if args.metrics:
        with open(args.metrics, "w") as fh:
            json.dump(metrics.snapshot(), fh, sort_keys=True, indent=2)
        print(f"wrote metrics snapshot to {args.metrics}", file=sys.stderr)
    with RunReporter(report_path) as reporter:
        reporter.emit(run_record(result.machine, result.runtime,
                                 result.wall_time, meta=meta, metrics=metrics))

    print(f"=== {args.app} {args.variant} on {topo.describe()}")
    print(render_timeline(tracer, topo, result.runtime, width=args.width))
    lat = tracer.latency_stats()
    util = utilization(tracer, topo, result.runtime)
    mean_util = sum(util.values()) / len(util) if util else 0.0
    print(f"sim time {result.runtime:.4f}s   wall {result.wall_time:.3f}s   "
          f"engine events {result.machine.engine.events_processed}")
    print(f"mean CPU utilization {100 * mean_util:5.1f}%   "
          f"WAN messages {len(tracer.wan_sends())} of {tracer.message_count()}")
    print(f"message latency ms: mean {lat['mean'] * 1e3:.3f}  "
          f"p50 {lat['p50'] * 1e3:.3f}  p95 {lat['p95'] * 1e3:.3f}  "
          f"p99 {lat['p99'] * 1e3:.3f}  max {lat['max'] * 1e3:.3f}")
    pair_rows = result.machine.stats.pair_rows()
    if pair_rows:
        print(render_table(
            ["src", "dst", "messages", "MByte"],
            [[r["src_cluster"], r["dst_cluster"], r["messages"],
              f"{r['mbytes']:.3f}"] for r in pair_rows],
            title="inter-cluster traffic matrix"))
    if args.sanitize:
        findings = result.machine.sanitizer.findings
        if findings:
            print(f"sanitizer: {len(findings)} finding(s)")
            for f in findings:
                print("  " + f.render())
        else:
            print("sanitizer: clean (FIFO, conservation, monotonicity)")
    print(f"wrote {events} trace events to {out_path}")
    print(f"wrote run report to {report_path}", file=sys.stderr)
