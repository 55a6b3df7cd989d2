"""Export experiment data as CSV/JSON for external plotting.

The terminal tables are for eyeballs; this module emits the same numbers
in machine-readable form::

    python -m repro export figure3 --apps water --out water.csv
    python -m repro export table1 --format json

Supported datasets: ``table1``, ``figure1``, ``figure3``, ``figure4``,
and ``traffic`` (the per-app inter-cluster pair matrix).
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import sys
from typing import Dict, List, Optional

from . import grids
from .runner import Sweeper


def table1_rows(scale: str = "paper") -> List[Dict]:
    from .table1 import PAPER_TABLE1, measure_app

    rows = []
    for app in grids.APPS:
        measured = measure_app(app, scale)
        paper = PAPER_TABLE1[app]
        rows.append({
            "app": app,
            "speedup_32": round(measured.speedup_32, 3),
            "speedup_8": round(measured.speedup_8, 3),
            "traffic_mbyte_s": round(measured.traffic_mbyte_s, 3),
            "runtime_32_s": round(measured.runtime_32, 4),
            "paper_speedup_32": paper["sp32"],
            "paper_speedup_8": paper["sp8"],
            "paper_traffic": paper["traffic"],
            "paper_runtime": paper["runtime"],
        })
    return rows


def figure1_rows(scale: str = "paper") -> List[Dict]:
    from .figure1 import measure

    rows = []
    for app in grids.APPS:
        point = measure(app, scale)
        rows.append({
            "app": app,
            "mbyte_s_per_cluster": round(point.mbyte_s_per_cluster, 4),
            "messages_s_per_cluster": round(point.messages_s_per_cluster, 1),
        })
    return rows


def figure3_rows(apps: Optional[List[str]] = None,
                 scale: str = "bench", seed: int = 0) -> List[Dict]:
    sweeper = Sweeper(scale=scale, seed=seed)
    rows = []
    for app in (apps or grids.APPS):
        for variant in grids.variants(app):
            grid = sweeper.speedup_grid(app, variant)
            for (bw, lat), point in sorted(grid.points.items()):
                rows.append({
                    "app": app,
                    "variant": variant,
                    "bandwidth_mbyte_s": bw,
                    "latency_ms": lat,
                    "runtime_s": round(point.runtime, 6),
                    "relative_speedup_pct": round(point.relative_speedup_pct, 2),
                })
    return rows


def figure4_rows(scale: str = "bench", seed: int = 0) -> List[Dict]:
    sweeper = Sweeper(scale=scale, seed=seed)
    rows = []
    for app in grids.APPS:
        panels = [("bandwidth", bw, grids.FIGURE4_LATENCY_MS)
                  for bw in grids.BANDWIDTHS_MBYTE_S]
        panels += [("latency", grids.FIGURE4_BANDWIDTH, lat)
                   for lat in grids.LATENCIES_MS]
        for panel, bw, lat in panels:
            rows.append({
                "app": app, "panel": panel,
                "bandwidth_mbyte_s": bw, "latency_ms": lat,
                "communication_time_pct": round(
                    sweeper.communication_time_pct(
                        app, grids.paper_variant(app), bw, lat), 2),
            })
    return rows


def traffic_rows(apps: Optional[List[str]] = None,
                 scale: str = "bench", seed: int = 0,
                 faults=None) -> List[Dict]:
    """Inter-cluster traffic pair matrix per app at the Figure-1 point.

    Each row carries the run-level fault/transport counters (zero on
    clean runs) so a CSV from a faulty run (pass a
    :class:`~repro.faults.plan.FaultPlan`) is directly comparable.
    """
    from ..apps import run_app

    topo = grids.multi_cluster(grids.FIGURE1_BANDWIDTH, grids.FIGURE1_LATENCY_MS)
    rows = []
    for app in (apps or grids.APPS):
        variant = grids.paper_variant(app)
        result = run_app(app, variant, topo, scale=scale, seed=seed,
                         faults=faults)
        stats = result.machine.stats
        for row in result.machine.stats.pair_rows():
            rows.append({"app": app, "variant": variant, **row,
                         "fault_drops": stats.fault_drops,
                         "retransmits": stats.retransmits,
                         "acks": stats.acks,
                         "dup_data_drops": stats.dup_data_drops})
    return rows


DATASETS = {
    "table1": table1_rows,
    "figure1": figure1_rows,
    "figure3": figure3_rows,
    "figure4": figure4_rows,
    "traffic": traffic_rows,
}


def to_csv(rows: List[Dict]) -> str:
    if not rows:
        return ""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


def to_json(rows: List[Dict]) -> str:
    return json.dumps(rows, indent=2)


def main(argv: Optional[list] = None) -> None:
    parser = argparse.ArgumentParser(prog="python -m repro export",
                                     description=__doc__)
    parser.add_argument("dataset", choices=sorted(DATASETS))
    parser.add_argument("--format", default="csv", choices=["csv", "json"])
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--scale", default=None, choices=["paper", "bench"])
    parser.add_argument("--apps", nargs="*", default=None,
                        choices=grids.APPS)
    parser.add_argument("--faults", type=float, default=None, metavar="LOSS",
                        help="traffic dataset only: run under uniform WAN "
                             "loss (probability) with the reliable transport")
    args = parser.parse_args(argv)
    for flag in ("apps", "faults"):
        takers = [name for name, rows in sorted(DATASETS.items())
                  if flag in inspect.signature(rows).parameters]
        if getattr(args, flag) is not None and args.dataset not in takers:
            parser.error(f"--{flag} applies only to "
                         f"{' and '.join(takers)}, not {args.dataset}")

    kwargs = {}
    if args.scale:
        kwargs["scale"] = args.scale
    if args.apps:
        kwargs["apps"] = args.apps
    if args.faults is not None:
        from ..faults import FaultPlan

        kwargs["faults"] = FaultPlan.wan_loss(args.faults)
    rows = DATASETS[args.dataset](**kwargs)
    text = to_csv(rows) if args.format == "csv" else to_json(rows)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    else:
        print(text, end="")
