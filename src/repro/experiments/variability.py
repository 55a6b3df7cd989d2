"""Further-work study: the impact of WAN latency/bandwidth *variations*.

The paper (Section 1) explicitly defers this: "Further research should
study the impact of variations in latency and bandwidth, which often
occur on wide area links."  This experiment runs the optimized
applications at the 10 ms / 1 MByte/s operating point while sweeping the
coefficient of variation of (a) per-message latency jitter and (b)
epoch-scale bandwidth fluctuation, reporting the relative-speedup
degradation versus fixed links.

Findings (see benchmarks/test_variability.py for the asserted shape):
synchronous, latency-bound patterns (TSP's queue RPCs, ASP's ordered
rows) degrade the most under latency jitter — each round trip waits for
its own unlucky draws — while bandwidth fluctuation mostly hurts the
volume-bound applications.

Run: ``python -m repro variability``
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Optional

from ..apps import default_config, run_app
from ..network import Variability, das_topology
from . import grids
from .report import render_table
from .runner import relative_speedup_pct

OPERATING_POINT = dict(wan_latency_ms=10.0, wan_bandwidth_mbyte_s=1.0)
CVS = (0.0, 0.5, 1.0, 2.0)


def relative_speedup_with(app: str, variant: str, variability, scale: str,
                          seed: int = 0) -> float:
    config = default_config(app, scale)
    base = run_app(app, variant, grids.baseline(), config=config, seed=seed)
    topo = das_topology(clusters=grids.NUM_CLUSTERS,
                        cluster_size=grids.CLUSTER_SIZE,
                        wan_variability=variability, **OPERATING_POINT)
    multi = run_app(app, variant, topo, config=config, seed=seed)
    return relative_speedup_pct(base.runtime, multi.runtime)


def sweep(app: str, kind: str, scale: str = "bench",
          seed: int = 0) -> List[float]:
    """Relative speedup across CVS for jitter ``kind`` ('latency'/'bandwidth')."""
    variant = grids.paper_variant(app)
    out = []
    for cv in CVS:
        if cv == 0.0:
            var = None
        elif kind == "latency":
            var = Variability(latency_cv=cv)
        else:
            var = Variability(bandwidth_cv=cv)
        out.append(relative_speedup_with(app, variant, var, scale, seed))
    return out


def main(argv: Optional[list] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--apps", nargs="*",
                        default=["water", "tsp", "asp", "awari"],
                        choices=grids.APPS)
    parser.add_argument("--scale", default="bench", choices=["paper", "bench"])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    for kind in ("latency", "bandwidth"):
        rows = []
        for app in args.apps:
            values = sweep(app, kind, args.scale, args.seed)
            rows.append([app] + [f"{v:5.1f}%" for v in values])
        print(render_table(
            [f"app \\ {kind} cv"] + [f"{cv:g}" for cv in CVS],
            rows,
            title=(f"Relative speedup under WAN {kind} variability "
                   f"(optimized apps, 10 ms / 1 MByte/s)"),
        ))
        print()
