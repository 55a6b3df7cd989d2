"""Table 2: communication patterns and their multi-cluster optimizations.

The table itself is a design inventory; to make it verifiable we also
print a measured fingerprint of each pattern — the WAN message reduction
the optimization achieves at the Figure-1 reference point.

Run: ``python -m repro table2``
"""

from __future__ import annotations

import argparse
from typing import Optional

from ..apps import default_config, run_app
from . import grids
from .report import render_table

#: The paper's Table 2 rows (pattern, optimization).
PATTERNS = {
    "water": ("All to Half", "Cluster Cache, Reduction Tree"),
    "barnes": ("BSP/Personalized All to All", "BSP message combining per node/cluster"),
    "tsp": ("Centralized Work Queue", "Work queue per cluster + work stealing"),
    "asp": ("Totally Ordered Broadcast", "Sequencer migration"),
    "awari": ("Asynchronous Unordered Messages", "Message combining per cluster"),
    "fft": ("Personalized All to All", "— (none found)"),
}


def wan_messages(app: str, variant: str, scale: str = "bench") -> int:
    topo = grids.multi_cluster(grids.FIGURE1_BANDWIDTH, grids.FIGURE1_LATENCY_MS)
    result = run_app(app, variant, topo, config=default_config(app, scale))
    return result.stats.inter.messages


def main(argv: Optional[list] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="bench", choices=["paper", "bench"])
    args = parser.parse_args(argv)

    rows = []
    for app in grids.APPS:
        pattern, optimization = PATTERNS[app]
        unopt = wan_messages(app, "unoptimized", args.scale)
        opt = wan_messages(app, "optimized", args.scale)
        ratio = f"{unopt / opt:4.1f}x" if opt else "-"
        rows.append([app, pattern, optimization, unopt, opt, ratio])
    print(render_table(
        ["Program", "Communication", "Optimization",
         "WAN msgs (unopt)", "WAN msgs (opt)", "reduction"],
        rows,
        title="Table 2 — patterns, optimizations, and measured WAN message cuts",
    ))
