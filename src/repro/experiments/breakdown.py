"""Per-rank time breakdown: where does the multi-cluster run spend time?

Complements Figure 4's black-box communication percentage with the
simulator's internal accounting: average per-rank shares of compute,
receive-blocked time, and messaging overhead, plus load imbalance (the
spread of per-rank compute), for each application at a chosen grid point.

Run: ``python -m repro breakdown [--bw 0.95] [--lat 10]``
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..apps import default_config, run_app
from . import grids
from .report import render_table


@dataclass
class Breakdown:
    app: str
    variant: str
    runtime: float
    compute_pct: float
    blocked_pct: float
    overhead_pct: float
    imbalance: float  # max/mean per-rank compute


def measure(app: str, variant: str, bandwidth: float, latency_ms: float,
            scale: str = "bench", seed: int = 0) -> Breakdown:
    topo = grids.multi_cluster(bandwidth, latency_ms)
    result = run_app(app, variant, topo,
                     config=default_config(app, scale), seed=seed)
    stats = result.rank_stats
    n = len(stats)
    runtime = result.runtime
    compute = sum(s.compute_time for s in stats) / n
    blocked = sum(s.recv_blocked_time for s in stats) / n
    overhead = sum(s.send_overhead_time + s.recv_overhead_time
                   for s in stats) / n
    per_rank = [s.compute_time for s in stats]
    mean = sum(per_rank) / n
    return Breakdown(
        app=app,
        variant=variant,
        runtime=runtime,
        compute_pct=100 * compute / runtime,
        blocked_pct=100 * blocked / runtime,
        overhead_pct=100 * overhead / runtime,
        imbalance=(max(per_rank) / mean) if mean else 1.0,
    )


def main(argv: Optional[list] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bw", type=float, default=0.95)
    parser.add_argument("--lat", type=float, default=10.0)
    parser.add_argument("--scale", default="bench", choices=["paper", "bench"])
    args = parser.parse_args(argv)

    rows = []
    for app in grids.APPS:
        for variant in grids.variants(app):
            b = measure(app, variant, args.bw, args.lat, args.scale)
            rows.append([
                f"{app} {variant[:5]}",
                f"{b.runtime:7.3f}s",
                f"{b.compute_pct:5.1f}%",
                f"{b.blocked_pct:5.1f}%",
                f"{b.overhead_pct:5.1f}%",
                f"{b.imbalance:4.2f}x",
            ])
    print(render_table(
        ["app/variant", "runtime", "compute", "recv-blocked",
         "msg overhead", "imbalance"],
        rows,
        title=(f"Per-rank time breakdown at {args.bw} MByte/s, "
               f"{args.lat} ms (4x8, mean over ranks)"),
    ))
