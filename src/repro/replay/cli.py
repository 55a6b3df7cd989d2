"""``python -m repro replay <app>`` — vectorized compiled-DAG pricing.

Records one instrumented run of the app at the mid-grid reference
point, walks the fallback ladder from its top rung (compile, probe,
adaptive convergence check, ground-truth corner validation — see
:mod:`repro.replay.ladder` and the table in ``docs/replay.md``), and
prints the complete Figure-3 panel priced by whichever rung accepted —
plus the evidence and validation verdicts and a stage-by-stage timing
summary.  With ``--loss``, reprices the panel under a uniform WAN
packet-loss rate — an axis only the compiled programs offer
analytically.
"""

from __future__ import annotations

import argparse
import time
from typing import Optional

from ..experiments import grids
from ..experiments.cache import SimCache
from ..experiments.figure3 import render_panel
from ..experiments.runner import SpeedupGrid, Sweeper


def _loss_panel(sweeper: Sweeper, app: str, variant: str,
                loss_rate: float) -> Optional[str]:
    """The Figure-3 panel re-priced under a uniform WAN loss rate."""
    decision = sweeper.decision(app, variant)
    rows = None
    if decision.pricer is not None:
        rows = decision.pricer.grid(grids.BANDWIDTHS_MBYTE_S,
                                    grids.LATENCIES_MS, [loss_rate])[0]
    if rows is None or any(v is None for row in rows for v in row):
        # The interpreted evaluator has no loss term, so under loss there
        # is no per-point downgrade target — skip honestly.
        print(f"[replay] --loss skipped: the grid was produced by "
              f"{decision.rung!r}, which cannot price every point at "
              f"p={loss_rate:g}, and no analytic downgrade exists on the "
              f"loss axis")
        return None
    grid = SpeedupGrid(app=app, variant=variant, backend=decision.rung,
                       baseline_runtime=sweeper.baseline_runtime(app, variant))
    for i, lat in enumerate(grids.LATENCIES_MS):
        for j, bw in enumerate(grids.BANDWIDTHS_MBYTE_S):
            grid.put(bw, lat, float(rows[i][j]))
    return render_panel(grid)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro replay", description=__doc__)
    parser.add_argument("app", choices=list(grids.APPS))
    parser.add_argument("--variant", default="optimized",
                        choices=["unoptimized", "optimized"])
    parser.add_argument("--scale", default="bench", choices=["paper", "bench"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tolerance-pp", type=float, default=5.0,
                        help="max |program - simulated| relative speedup "
                             "(percentage points) at the validation corners "
                             "before falling back")
    parser.add_argument("--cache", default=None, metavar="DIR",
                        help="SimCache directory: reuse/store the compiled "
                             "program and the corner simulations")
    parser.add_argument("--loss", type=float, default=None, metavar="P",
                        help="also print the panel re-priced under a uniform "
                             "WAN packet-loss rate P (0 <= P < 0.5)")
    args = parser.parse_args(argv)

    variant = args.variant
    if args.app == "fft" and variant == "optimized":
        variant = "unoptimized"  # the paper found no optimization for FFT
        print("note: fft has no optimized variant; using unoptimized\n")

    cache = SimCache(args.cache) if args.cache else None
    sweeper = Sweeper(scale=args.scale, seed=args.seed, backend="replay",
                      tolerance_pp=args.tolerance_pp, cache=cache)
    wall_start = time.perf_counter()  # lint: ignore[wall-clock]
    grid = sweeper.speedup_grid(args.app, variant)
    wall = time.perf_counter() - wall_start  # lint: ignore[wall-clock]

    print(render_panel(grid))
    print()
    print(f"[replay] backend={grid.backend} "
          f"({len(grid.points)}-point grid in {wall:.2f}s total)")
    decision = sweeper.decision(args.app, variant)
    for name, report in decision.evidence.items():
        print(f"[replay] {name}: {report.summary()}")
    if grid.downgraded_points:
        pts = ", ".join(f"({bw:g} MB/s, {lat:g} ms)"
                        for bw, lat in grid.downgraded_points)
        print(f"[replay] {len(grid.downgraded_points)} unconverged "
              f"points re-priced by the evaluator: {pts}")
    print(f"[replay] validation: {decision.validation.summary()}")

    backend = decision.backend      # never None: this sweep has no faults
    if backend.program is not None:
        stats = backend.program.stats()
        print(f"[replay] program: {stats['nodes']} nodes in "
              f"{stats['levels']} levels, {stats['joins_reduced']} joins "
              f"folded at compile time"
              + (" (loaded from cache)" if backend.from_cache else ""))
    if backend.adaptive_program is not None:
        stats = backend.adaptive_program.stats()
        print(f"[replay] adaptive program: {stats['nodes']} nodes in "
              f"{stats['levels']} levels, {stats['adaptive_group_ops']} "
              f"queue ops across {stats['adaptive_groups']} groups"
              + (" (loaded from cache)"
                 if backend.adaptive_from_cache else ""))
    stages = ", ".join(f"{name[:-2]} {secs * 1e3:.1f}ms"
                       for name, secs in sorted(backend.timings.items()))
    print(f"[replay] stages: {stages}")

    if args.loss is not None:
        panel = _loss_panel(sweeper, args.app, variant, args.loss)
        if panel is not None:
            print()
            print(f"--- re-priced at WAN loss rate p={args.loss:g} ---")
            print(panel)
    return 0


if __name__ == "__main__":
    main()
