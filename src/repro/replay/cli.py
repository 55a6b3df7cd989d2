"""``python -m repro replay <app>`` / ``python -m repro whatif <app>`` —
one analytically priced Figure-3 panel.

Records one instrumented run of the app at the mid-grid reference
point and walks the fallback ladder (:mod:`repro.replay.ladder`; table
in ``docs/replay.md``) — ``replay`` from its top rung (compile, probe,
adaptive convergence check), ``whatif`` from its last, the interpreted
evaluator — to one ground-truth validation against full simulation at
the grid corners.  Prints the complete panel priced by whichever rung
accepted (by simulation when none did: tsp, awari), the verdict, the
corner-validation table and a stage-by-stage timing summary.  With
``--loss``, reprices the panel under a uniform WAN packet-loss rate —
an axis only the compiled programs offer analytically.
"""

from __future__ import annotations

import argparse
import time
from typing import Optional

from ..apps.base import SEED_HELP
from ..experiments import grids
from ..experiments.cache import SimCache
from ..experiments.figure3 import render_panel, render_verdict
from ..experiments.report import render_table
from ..experiments.runner import SpeedupGrid, Sweeper
from ..faults.plan import TransportConfig

#: the expected-value loss model diverges at 1 / backoff (see
#: ``ReplayProgram._loss_terms``)
MAX_LOSS = 1.0 / TransportConfig().backoff


def _loss_panel(grid: SpeedupGrid, loss_rate: float) -> Optional[str]:
    """``grid``'s panel re-priced under a uniform WAN loss rate, if its
    rung can price every point there."""
    if grid.decision.pricer is None:
        return None
    runtimes, _ = grid.decision.price_grid(
        grids.BANDWIDTHS_MBYTE_S, grids.LATENCIES_MS, loss_rate)
    if None in runtimes.values():
        return None
    lossy = SpeedupGrid(app=grid.app, variant=grid.variant,
                        backend=grid.backend,
                        baseline_runtime=grid.baseline_runtime)
    for point, runtime in runtimes.items():
        lossy.put(*point, runtime)
    return render_panel(lossy)


def whatif_main(argv: Optional[list] = None) -> int:
    """``whatif``: the ladder entered at its ``predict`` rung."""
    return main(argv, entry="predict")


def main(argv: Optional[list] = None, entry: str = "replay") -> int:
    """Both command names: ``entry`` is the rung the ladder is entered
    at — ``"replay"`` for ``replay``, ``"predict"`` for ``whatif``."""
    tag = "whatif" if entry == "predict" else "replay"
    parser = argparse.ArgumentParser(
        prog=f"python -m repro {tag}", description=__doc__)
    parser.add_argument("app", choices=grids.APPS)
    parser.add_argument("--variant", default="optimized",
                        choices=grids.VARIANTS)
    parser.add_argument("--scale", default="bench", choices=["paper", "bench"])
    parser.add_argument("--seed", type=int, default=0, help=SEED_HELP)
    parser.add_argument("--cache", default=None, metavar="DIR",
                        help="SimCache directory: reuse/store the compiled "
                             "program and the corner simulations")
    parser.add_argument("--loss", type=float, default=None, metavar="P",
                        help=f"also print the panel re-priced under a "
                             f"uniform WAN packet-loss rate P "
                             f"(0 <= P < {MAX_LOSS:g})")
    args = parser.parse_args(argv)
    if args.loss is not None and not 0.0 <= args.loss < MAX_LOSS:
        parser.error(f"--loss {args.loss:g} is outside [0, {MAX_LOSS:g}): "
                     f"the analytic loss model diverges beyond it (simulate "
                     f"heavier loss with `python -m repro degraded`)")

    variant = grids.resolve_variant(args.app, args.variant)
    if variant != args.variant:
        print(f"note: {args.app} has no {args.variant} variant; "
              f"using {variant}\n")

    sweeper = Sweeper(scale=args.scale, seed=args.seed, backend=entry,
                      cache=SimCache(args.cache) if args.cache else None)
    # Host wall-time for the speed report, not simulated time.
    wall_start = time.perf_counter()  # lint: ignore[wall-clock]
    grid = sweeper.speedup_grid(args.app, variant)
    wall = time.perf_counter() - wall_start  # lint: ignore[wall-clock]
    decision = grid.decision

    print(render_panel(grid))
    print(f"\n[{tag}] {len(grid.points)}-point grid in {wall:.2f}s total")
    print(render_verdict(decision, tag))
    if grid.downgraded_points:
        pts = ", ".join(f"({bw:g} MB/s, {lat:g} ms)"
                        for bw, lat in grid.downgraded_points)
        print(f"[{tag}] {len(grid.downgraded_points)} unconverged "
              f"points re-priced by the evaluator: {pts}")
    if decision.validation.points:
        print("\n" + render_table(
            ["bw MByte/s", "latency ms", "priced", "simulated", "error"],
            [[f"{p.bandwidth_mbyte_s:g}", f"{p.latency_ms:g}",
              f"{p.predicted_speedup_pct:6.2f}%",
              f"{p.simulated_speedup_pct:6.2f}%", f"{p.error_pp:.3f} pp"]
             for p in decision.validation.points],
            title="Validation at grid corners (relative speedup)") + "\n")

    facts = decision.facts
    for label, program in (("program", facts.program),
                           ("adaptive program", facts.adaptive)):
        if program is not None:
            stats = ", ".join(f"{k}={v}" for k, v in program.stats.items())
            print(f"[{tag}] {label}: {stats}"
                  + (" (loaded from cache)" if program.from_cache else ""))
    stages = ", ".join(f"{name[:-2]} {secs * 1e3:.1f}ms"
                       for name, secs in sorted(facts.timings.items()))
    print(f"[{tag}] stages: {stages}")

    if args.loss is not None:
        panel = _loss_panel(grid, args.loss)
        if panel is None:
            # The interpreted evaluator has no loss term, so under loss
            # there is no per-point downgrade target — skip honestly.
            print(f"[{tag}] --loss skipped: the grid was produced by "
                  f"{grid.backend!r}, which cannot price every point at "
                  f"p={args.loss:g}, and no analytic downgrade exists on "
                  f"the loss axis")
        else:
            print(f"\n--- re-priced at WAN loss rate p={args.loss:g} ---")
            print(panel)
    return 0
