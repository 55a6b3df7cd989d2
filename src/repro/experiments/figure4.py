"""Figure 4: inter-cluster communication time percentages.

Left panel: communication time vs. WAN bandwidth at 3.3 ms latency.
Right panel: communication time vs. WAN latency at 0.9 MByte/s.
The metric is the paper's ``(T_M - T_L) / T_M * 100`` — the fraction of
the multi-cluster run time attributable to the slow interconnect.
Optimized variants are used (FFT has none), as in the paper's analysis.

Run: ``python -m repro figure4 [--scale bench|paper]``
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Optional

from ..apps.base import SEED_HELP
from . import grids
from .report import render_series_chart, render_table
from .runner import BACKENDS, Sweeper


def _panel(sweeper: Sweeper, points) -> Dict[str, List[float]]:
    """Communication-time % per app, in the variant the paper analyses,
    at each ``(bandwidth, latency)`` of ``points``."""
    return {app: [sweeper.communication_time_pct(
                      app, grids.paper_variant(app), bw, lat)
                  for bw, lat in points]
            for app in grids.APPS}


def bandwidth_panel(sweeper: Sweeper) -> Dict[str, List[float]]:
    """Communication-time % per app over the bandwidth grid at 3.3 ms."""
    return _panel(sweeper, [
        (bw, grids.FIGURE4_LATENCY_MS)
        for bw in sorted(grids.BANDWIDTHS_MBYTE_S, reverse=True)])


def latency_panel(sweeper: Sweeper) -> Dict[str, List[float]]:
    """Communication-time % per app over the latency grid at 0.9 MByte/s."""
    return _panel(sweeper, [(grids.FIGURE4_BANDWIDTH, lat)
                            for lat in grids.LATENCIES_MS])


def _print_panel(panel: Dict[str, List[float]], x_labels: List[str],
                 title: str, x_name: str) -> None:
    headers = [f"app \\ {x_name}"] + x_labels
    rows = [[app] + [f"{v:5.1f}%" for v in values] for app, values in panel.items()]
    print(render_table(headers, rows, title=title))
    print()
    print(render_series_chart(panel, x_labels, title))
    print()


def main(argv: Optional[list] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="bench", choices=["paper", "bench"])
    parser.add_argument("--seed", type=int, default=0, help=SEED_HELP)
    parser.add_argument("--backend", default="simulate", choices=BACKENDS,
                        help="simulate every point, or price them from "
                             "recorded communication DAGs (predict) or "
                             "compiled replay programs (replay) where "
                             "validated — see docs/replay.md")
    args = parser.parse_args(argv)

    sweeper = Sweeper(scale=args.scale, seed=args.seed, backend=args.backend)
    bw_labels = [f"{bw:g}" for bw in sorted(grids.BANDWIDTHS_MBYTE_S, reverse=True)]
    _print_panel(
        bandwidth_panel(sweeper), bw_labels,
        f"Figure 4 (left) — communication time vs bandwidth at "
        f"{grids.FIGURE4_LATENCY_MS} ms", "bw MByte/s")
    lat_labels = [f"{lat:g}" for lat in grids.LATENCIES_MS]
    _print_panel(
        latency_panel(sweeper), lat_labels,
        f"Figure 4 (right) — communication time vs latency at "
        f"{grids.FIGURE4_BANDWIDTH} MByte/s", "latency ms")
