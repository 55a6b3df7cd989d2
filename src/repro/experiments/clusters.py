"""Section 5.1's cluster-structure experiment: 8x4 versus 4x8.

"Performance increases as there are more, smaller, clusters: a setup of
8 clusters of 4 processors outperforms 4 clusters of 8 processors" —
because the fully-connected WAN's bisection bandwidth grows with the
cluster count (7 outgoing links per cluster instead of 3), and
performance is limited by wide-area bandwidth.

Run: ``python -m repro clusters [--scale bench|paper]``
"""

from __future__ import annotations

import argparse
from typing import List, Optional, Tuple

from ..apps import default_config, run_app
from . import grids
from .report import render_table
from .runner import Sweeper

#: Cluster shapes compared (always 32 processors).
SHAPES: Tuple[Tuple[int, int], ...] = ((2, 16), (4, 8), (8, 4))

#: A bandwidth-limited operating point where the effect is visible.
BANDWIDTH = 0.3
LATENCY_MS = 3.3


def measure(app: str, variant: str, scale: str = "bench",
            seed: int = 0, wan_shape: str = "full") -> List[Tuple[str, float, float]]:
    """Relative speedup of each shape (vs. all-Myrinet 32p)."""
    sweeper = Sweeper(scale=scale, seed=seed)
    rows = []
    for clusters, size in SHAPES:
        point = sweeper.speedup_at(app, variant, BANDWIDTH, LATENCY_MS,
                                   clusters=clusters, cluster_size=size,
                                   wan_shape=wan_shape)
        rows.append((f"{clusters}x{size}", point.runtime,
                     point.relative_speedup_pct))
    return rows


def main(argv: Optional[list] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--apps", nargs="*", default=["water", "asp", "barnes"],
                        choices=grids.APPS)
    parser.add_argument("--variant", default="optimized",
                        choices=grids.VARIANTS)
    parser.add_argument("--scale", default="bench", choices=["paper", "bench"])
    parser.add_argument("--wan-shape", default="full",
                        choices=["full", "star", "ring"])
    args = parser.parse_args(argv)

    for app in args.apps:
        variant = grids.resolve_variant(app, args.variant)
        rows = [[shape, f"{runtime:7.3f}", f"{pct:5.1f}%"]
                for shape, runtime, pct in measure(app, variant, args.scale,
                                                   wan_shape=args.wan_shape)]
        print(render_table(
            ["shape", "runtime s", "relative speedup"],
            rows,
            title=(f"{app} {variant} — cluster structure at "
                   f"{BANDWIDTH} MByte/s, {LATENCY_MS} ms, "
                   f"{args.wan_shape} WAN (the paper: more, smaller "
                   f"clusters win on the full shape; the effect should "
                   f"diminish or vanish on star/ring)"),
        ))
        print()
