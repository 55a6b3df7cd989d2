"""Degraded-WAN sweep: Figure 3 re-run under fixed packet-loss rates.

The paper's grid assumes a lossless (if slow) wide-area layer.  This
harness asks how the central result shifts when the WAN also *drops*
packets: for each requested loss rate it re-runs the relative-speedup
sweep with :class:`~repro.faults.plan.FaultPlan` loss injection and the
reliable transport enabled, so applications pay for every drop with a
timeout plus retransmission instead of deadlocking.  The all-Myrinet
baseline stays clean — curves still read "% of ideal single-cluster
speedup".

A per-app overhead table compares the clean and degraded runtimes at a
reference grid point and counts retransmissions, so the cost of loss is
visible even where the panels look similar.

Run:
    python -m repro degraded                   # 1% loss, all apps
    python -m repro degraded --loss 0.01 0.05 --apps water asp
    python -m repro degraded --skip-panels     # overhead table only
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from ..apps import default_config, run_app
from ..faults.plan import FaultPlan
from . import grids
from .figure3 import render_panel
from .report import render_table
from .runner import Sweeper

#: Reference grid point for the overhead table (mid-grid, like Figure 4).
REFERENCE_BANDWIDTH = 0.95
REFERENCE_LATENCY_MS = 10.0


def overhead_rows(apps: List[str], variant: str, loss_rates: List[float],
                  scale: str, seed: int,
                  blame: bool = False) -> List[List[str]]:
    """Clean vs. degraded runtime (plus retransmit counts) per app.

    With ``blame=True`` each runtime cell is annotated with the run's
    dominant attribution bucket from a profiled re-run (see
    :mod:`repro.critpath`) — e.g. ``[retry]`` when loss recovery, not
    raw WAN latency, is what the degraded run waits on.
    """
    topo = grids.multi_cluster(REFERENCE_BANDWIDTH, REFERENCE_LATENCY_MS)
    if blame:
        from ..critpath.blame import dominant_bucket_at

    def bucket_note(faults) -> str:
        if not blame:
            return ""
        bucket = dominant_bucket_at(
            app, variant, REFERENCE_BANDWIDTH, REFERENCE_LATENCY_MS,
            scale=scale, seed=seed, faults=faults)
        return f" [{bucket}]"

    rows = []
    for app in apps:
        config = default_config(app, scale)
        clean = run_app(app, variant, topo, config=config, seed=seed)
        row = [app, f"{clean.runtime:.4f}s{bucket_note(None)}"]
        for rate in loss_rates:
            plan = FaultPlan.wan_loss(rate)
            lossy = run_app(app, variant, topo, config=config, seed=seed,
                            faults=plan)
            overhead = 100.0 * (lossy.runtime / clean.runtime - 1.0)
            stats = lossy.stats
            row.append(f"{lossy.runtime:.4f}s (+{overhead:.1f}%, "
                       f"{stats.fault_drops} lost, "
                       f"{stats.retransmits} resent)"
                       f"{bucket_note(FaultPlan.wan_loss(rate))}")
        rows.append(row)
    return rows


def main(argv: Optional[list] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--apps", nargs="*", default=list(grids.APPS),
                        choices=grids.APPS)
    parser.add_argument("--variant", default="unoptimized",
                        choices=["unoptimized", "optimized"])
    parser.add_argument("--loss", nargs="*", type=float, default=[0.01],
                        help="WAN packet-loss rates to sweep")
    parser.add_argument("--scale", default="bench", choices=["paper", "bench"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--skip-panels", action="store_true",
                        help="only print the overhead table (much faster)")
    parser.add_argument("--blame", action="store_true",
                        help="annotate overhead cells with the dominant "
                             "attribution bucket from a profiled re-run")
    args = parser.parse_args(argv)

    if not args.skip_panels:
        for rate in args.loss:
            sweeper = Sweeper(scale=args.scale, seed=args.seed,
                              faults=FaultPlan.wan_loss(rate))
            for app in args.apps:
                grid = sweeper.speedup_grid(app, args.variant)
                print(f"=== {100.0 * rate:g}% WAN loss ===")
                print(render_panel(grid))
                print()

    headers = ["app", "clean"] + [f"loss {100.0 * r:g}%" for r in args.loss]
    print(render_table(
        headers,
        overhead_rows(args.apps, args.variant, args.loss, args.scale,
                      args.seed, blame=args.blame),
        title=(f"Runtime overhead of WAN loss at {REFERENCE_BANDWIDTH:g} "
               f"MByte/s, {REFERENCE_LATENCY_MS:g} ms ({args.variant})")))
