"""``python -m repro whatif <app>`` — record-once sensitivity analysis.

Records one instrumented run of the app at the mid-grid reference point,
validates analytic predictions against full simulation at the grid
corners, then prints the complete Figure-3 panel computed by the
evaluator — plus a validation table and a record/evaluate/simulate speed
summary.  Timing-dependent apps (tsp, awari) report their fallback and
exit without predicting.
"""

from __future__ import annotations

import argparse
import time
from typing import Optional

from ..experiments import grids
from ..experiments.figure3 import render_panel
from ..experiments.report import render_table
from ..experiments.runner import Sweeper


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro whatif", description=__doc__)
    parser.add_argument("app", choices=list(grids.APPS))
    parser.add_argument("--variant", default="optimized",
                        choices=["unoptimized", "optimized"])
    parser.add_argument("--scale", default="bench", choices=["paper", "bench"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tolerance-pp", type=float, default=5.0,
                        help="max |predicted - simulated| relative speedup "
                             "(percentage points) before falling back")
    args = parser.parse_args(argv)

    variant = args.variant
    if args.app == "fft" and variant == "optimized":
        variant = "unoptimized"  # the paper found no optimization for FFT
        print("note: fft has no optimized variant; using unoptimized\n")

    sweeper = Sweeper(scale=args.scale, seed=args.seed, backend="predict",
                      tolerance_pp=args.tolerance_pp)
    # Host wall-time for the speedup report, not simulated time.
    wall_start = time.perf_counter()  # lint: ignore[wall-clock]
    grid = sweeper.speedup_grid(args.app, variant)
    wall = time.perf_counter() - wall_start  # lint: ignore[wall-clock]
    report = grid.validation

    if not grid.predicted:
        print(f"{args.app}/{variant}: fell back to full simulation")
        if report is not None:
            print(f"  reason: {report.reason}")
        print(f"  grid computed by simulation in {wall:.2f}s "
              f"({len(grid.points)} points)")
        print()
        print(render_panel(grid))
        return 0

    print(render_panel(grid))
    print()
    print(f"[whatif] {report.summary()}")
    rows = [[f"{p.bandwidth_mbyte_s:g}", f"{p.latency_ms:g}",
             f"{p.predicted_speedup_pct:6.2f}%",
             f"{p.simulated_speedup_pct:6.2f}%",
             f"{p.error_pp:.3f} pp"]
            for p in report.points]
    print(render_table(
        ["bw MByte/s", "latency ms", "predicted", "simulated", "error"],
        rows, title="Validation at grid corners (relative speedup)"))
    n_sim = len(report.points) + 1  # corners + baseline
    print(f"\nspeed: {len(grid.points)}-point grid in {wall:.2f}s total, "
          f"including 1 recording run and {n_sim} ground-truth simulations "
          f"for validation; see benchmarks/test_whatif_speedup.py for the "
          f"evaluator-vs-simulation ratio")
    return 0


if __name__ == "__main__":
    main()
