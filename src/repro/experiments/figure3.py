"""Figure 3: relative speedup vs. WAN bandwidth, one curve per latency.

Reproduces all twelve panels (six applications, unoptimized and
optimized) of the paper's central figure: speedup relative to the
all-Myrinet 32-processor cluster over the {6.3 .. 0.03} MByte/s x
{0.5 .. 300} ms grid on 4 clusters of 8.

Run:
    python -m repro figure3                # all panels, bench scale
    python -m repro figure3 --apps water asp --variant optimized
    python -m repro figure3 --scale paper  # full step counts (slow)
    python -m repro figure3 --backend replay  # analytic panels
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Optional

from ..apps.base import SEED_HELP
from . import grids
from .report import render_series_chart, render_table
from .runner import BACKENDS, SpeedupGrid, Sweeper


def render_panel(grid: SpeedupGrid) -> str:
    """One Figure-3 panel as a table plus an ASCII chart, over the
    grid's own axes (the paper's, for a default sweep)."""
    bandwidths = sorted({bw for bw, _ in grid.points}, reverse=True)
    headers = ["latency \\ bw MByte/s"] + [f"{bw:g}" for bw in bandwidths]
    rows = []
    series: Dict[str, List[float]] = {}
    for lat in sorted({lat for _, lat in grid.points}):
        curve = {p.bandwidth_mbyte_s: p.relative_speedup_pct
                 for p in grid.series(lat)}
        rows.append([f"{lat:g} ms"] + [f"{curve[bw]:5.1f}%" for bw in bandwidths])
        series[f"{lat:g}ms"] = [curve[bw] for bw in bandwidths]
    title = (f"{grid.app.upper()} {grid.variant} — relative speedup "
             f"(100% = all-Myrinet 32p, T_L={grid.baseline_runtime:.3f}s)")
    table = render_table(headers, rows, title=title)
    chart = render_series_chart(
        series, [f"{bw:g}" for bw in bandwidths],
        f"{grid.app} {grid.variant}: % of single-cluster speedup vs bandwidth",
    )
    return table + "\n\n" + chart


def render_verdict(decision, tag: str) -> str:
    """A walked ladder's verdict (``Decision.summary()``), one tagged
    line per entry: the rung, each evidence report, the validation."""
    summary = decision.summary()
    summary.pop("fallback_reason", None)    # the validation line words it
    return "\n".join(f"[{tag}] {name}: {text}"
                     for name, text in summary.items())


def main(argv: Optional[list] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--apps", nargs="*", default=list(grids.APPS),
                        choices=grids.APPS)
    parser.add_argument("--variant", default=None,
                        choices=[None, *grids.VARIANTS])
    parser.add_argument("--scale", default="bench", choices=["paper", "bench"])
    parser.add_argument("--seed", type=int, default=0, help=SEED_HELP)
    parser.add_argument("--backend", default="simulate", choices=BACKENDS,
                        help="where the sweep enters the fallback ladder: "
                             "simulate every point, or price grids from a "
                             "recorded communication DAG (predict) or its "
                             "compiled vectorized program (replay) — "
                             "corner-validated, falling back per "
                             "app; see docs/replay.md")
    parser.add_argument("--workers", type=int, default=None,
                        help="simulate ground-truth grid points in N "
                             "parallel processes")
    parser.add_argument("--blame", action="store_true",
                        help="also print each panel's dominant-bottleneck "
                             "letter grid (profiles every grid point; see "
                             "repro.critpath)")
    args = parser.parse_args(argv)

    sweeper = Sweeper(scale=args.scale, seed=args.seed,
                      workers=args.workers, backend=args.backend)
    for app in args.apps:
        variants = grids.variants(app)
        if args.variant:
            variants = [grids.resolve_variant(app, args.variant)]
        for variant in variants:
            grid = sweeper.speedup_grid(app, variant)
            print(render_panel(grid))
            if grid.decision is not None:
                print(render_verdict(grid.decision, args.backend))
            if args.blame:
                from ..critpath.blame import blame_grid, render_blame_panel

                letters = blame_grid(app, variant, scale=args.scale,
                                     seed=args.seed)
                print()
                print(render_blame_panel(app, variant, letters))
            print()
