"""Figure 1: inter-cluster communication volume vs. message rate.

Unoptimized applications on 4 clusters of 8 with 6 MByte/s / 0.5 ms WAN
links, reporting MByte/s per cluster against messages/s per cluster —
the scatter the paper uses to place the applications in communication
space (TSP bottom-left, Awari far right, Barnes-Hut/FFT top).

Run: ``python -m repro figure1 [--scale paper|bench]``
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Dict, Optional

from ..apps import default_config, run_app
from . import grids
from .report import render_table

#: Qualitative positions read off the paper's Figure 1 (per cluster).
PAPER_FIGURE1_NOTES = {
    "asp": "modest volume (<2 MByte/s), <1000 msgs/s",
    "awari": "small volume, >4000 msgs/s (tiny messages)",
    "fft": "high volume (~7 MByte/s)",
    "barnes": "high volume (~7 MByte/s)",
    "tsp": "lowest volume (~0.1 MByte/s)",
    "water": "modest volume (<2 MByte/s), <1000 msgs/s",
}


@dataclass
class Figure1Point:
    app: str
    mbyte_s_per_cluster: float
    messages_s_per_cluster: float


def measure(app: str, scale: str = "paper", seed: int = 0) -> Figure1Point:
    topo = grids.multi_cluster(grids.FIGURE1_BANDWIDTH, grids.FIGURE1_LATENCY_MS)
    result = run_app(app, "unoptimized", topo,
                     config=default_config(app, scale), seed=seed)
    stats = result.stats
    return Figure1Point(
        app=app,
        mbyte_s_per_cluster=stats.inter_mbyte_per_s_per_cluster(),
        messages_s_per_cluster=stats.inter_messages_per_s_per_cluster(),
    )


def measure_all(scale: str = "paper") -> Dict[str, Figure1Point]:
    return {app: measure(app, scale) for app in grids.APPS}


def main(argv: Optional[list] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="paper", choices=["paper", "bench"])
    args = parser.parse_args(argv)

    rows = []
    for app in grids.APPS:
        point = measure(app, args.scale)
        rows.append([
            app,
            f"{point.mbyte_s_per_cluster:7.2f}",
            f"{point.messages_s_per_cluster:8.0f}",
            PAPER_FIGURE1_NOTES[app],
        ])
    print(render_table(
        ["Program", "MByte/s/cluster", "msgs/s/cluster", "paper's Figure 1 position"],
        rows,
        title=(f"Figure 1 — inter-cluster traffic of unoptimized apps "
               f"(4x8, {grids.FIGURE1_BANDWIDTH} MByte/s, "
               f"{grids.FIGURE1_LATENCY_MS} ms, scale={args.scale})"),
    ))
