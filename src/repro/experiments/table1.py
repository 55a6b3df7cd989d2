"""Table 1: single-cluster speedups, traffic and runtime at paper scale.

Run: ``python -m repro table1 [--scale paper|bench]``
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Dict, Optional

from ..apps import default_config, run_app
from ..network.topology import single_cluster
from . import grids
from .report import render_table

#: The paper's Table 1, for side-by-side comparison.
PAPER_TABLE1 = {
    "water": {"sp32": 31.2, "sp8": 7.8, "traffic": 3.8, "runtime": 9.1},
    "barnes": {"sp32": 28.4, "sp8": 7.1, "traffic": 17.8, "runtime": 1.8},
    "tsp": {"sp32": 29.2, "sp8": 7.7, "traffic": 0.52, "runtime": 4.7},
    "asp": {"sp32": 31.3, "sp8": 7.8, "traffic": 0.75, "runtime": 6.0},
    "awari": {"sp32": 7.8, "sp8": 4.6, "traffic": 4.1, "runtime": 2.3},
    "fft": {"sp32": 32.9, "sp8": 5.3, "traffic": 128.0, "runtime": 0.26},
}


@dataclass
class Table1Row:
    app: str
    speedup_32: float
    speedup_8: float
    traffic_mbyte_s: float
    runtime_32: float


def measure_app(app: str, scale: str = "paper", seed: int = 0) -> Table1Row:
    """Reproduce one Table 1 row on simulated single clusters."""
    config = default_config(app, scale)
    r1 = run_app(app, "unoptimized", single_cluster(1), config=config, seed=seed)
    r8 = run_app(app, "unoptimized", single_cluster(8), config=config, seed=seed)
    r32 = run_app(app, "unoptimized", single_cluster(32), config=config, seed=seed)
    return Table1Row(
        app=app,
        speedup_32=r1.runtime / r32.runtime,
        speedup_8=r1.runtime / r8.runtime,
        traffic_mbyte_s=r32.stats.total_bytes / 1e6 / r32.runtime,
        runtime_32=r32.runtime,
    )


def measure_all(scale: str = "paper", seed: int = 0) -> Dict[str, Table1Row]:
    return {app: measure_app(app, scale, seed) for app in grids.APPS}


def main(argv: Optional[list] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="paper", choices=["paper", "bench"])
    args = parser.parse_args(argv)

    rows = []
    for app in grids.APPS:
        measured = measure_app(app, args.scale)
        paper = PAPER_TABLE1[app]
        rows.append([
            app,
            f"{measured.speedup_32:5.1f} ({paper['sp32']:5.1f})",
            f"{measured.speedup_8:5.2f} ({paper['sp8']:5.2f})",
            f"{measured.traffic_mbyte_s:6.2f} ({paper['traffic']:6.2f})",
            f"{measured.runtime_32:5.2f} ({paper['runtime']:5.2f})",
        ])
    print(render_table(
        ["Program", "Speedup 32p", "Speedup 8p",
         "Traffic 32p MByte/s", "Runtime 32p s"],
        rows,
        title=f"Table 1 — measured (paper) at scale={args.scale}",
    ))
