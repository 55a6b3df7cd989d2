"""What-if evaluator speedup guard: an analytic grid must stay several
times faster than simulating it.

The whole point of :mod:`repro.whatif` is that, once an application has
been recorded, its communication DAG evaluates the paper's full Figure-3
grid (6 bandwidths x 7 latencies) much faster than re-simulating every
point.  This guard times three things for asp/optimized, interleaved in
one process (``conftest.interleaved_min``: sim, record, eval, sim,
record, eval ... — the minimum of each):

- **sim**: ``Sweeper.speedup_grid`` running the real simulator at all 42
  grid points (plus the baseline);
- **record**: the one-off instrumented run plus the evaluator build,
  amortized over every grid the recording ever evaluates;
- **eval**: 42 ``Evaluator.evaluate`` calls on a prepared recording.

All sides run the same physics in the same process on the same host in
the same seconds, so machine speed cancels in the ratios; the spot check
at the reference point proves the fast side is not computing something
else.  No absolute time is asserted anywhere.  Each floor is half the
ratio measured in a fresh process on the reference container — a
gross-regression tripwire, like ``test_zero_cost_when_off.py``'s.
"""

from repro.experiments import grids
from repro.experiments.runner import Sweeper
from repro.whatif import Evaluator, record_app

from conftest import interleaved_min

#: sim / eval, measured 13.7-16.6 over eight fresh-process runs
SEED_EVAL_SPEEDUP = 14.0
EVAL_SPEEDUP_FLOOR = 0.5 * SEED_EVAL_SPEEDUP
#: sim / (record + eval), recording included: measured 7.5-10.3
SEED_END_TO_END = 8.0
END_TO_END_FLOOR = 0.5 * SEED_END_TO_END
GRID = [(bw, lat) for lat in grids.LATENCIES_MS
        for bw in grids.BANDWIDTHS_MBYTE_S]


def eval_grid(evaluator):
    return [evaluator.evaluate(grids.multi_cluster(bw, lat))
            for bw, lat in GRID]


def test_whatif_grid_faster_than_simulation():
    evaluator = Evaluator(record_app("asp", "optimized").dag)
    grid = Sweeper().speedup_grid("asp", "optimized")
    runtimes = eval_grid(evaluator)
    assert len(grid.points) == len(runtimes) == len(GRID)

    # Same physics on both paths: spot-check agreement at the reference
    # point so the speed win is not from computing something else.
    ref = grid.points[(0.95, 3.3)].runtime
    predicted = runtimes[GRID.index((0.95, 3.3))]
    assert abs(predicted - ref) / ref < 0.05

    wall = interleaved_min(
        sim=lambda: Sweeper().speedup_grid("asp", "optimized"),
        record=lambda: Evaluator(record_app("asp", "optimized").dag),
        eval=lambda: eval_grid(evaluator))

    ratio = wall["sim"] / wall["eval"]
    assert ratio >= EVAL_SPEEDUP_FLOOR, (
        f"evaluator grid only {ratio:.1f}x faster than simulation "
        f"(sim {wall['sim']:.2f}s vs eval {wall['eval']:.2f}s for "
        f"{len(GRID)} points); floor is {EVAL_SPEEDUP_FLOOR}x, "
        f"measured {SEED_EVAL_SPEEDUP}x")

    end_to_end = wall["sim"] / (wall["record"] + wall["eval"])
    assert end_to_end >= END_TO_END_FLOOR, (
        f"predict path incl. recording only {end_to_end:.1f}x faster "
        f"(record {wall['record']:.2f}s + eval {wall['eval']:.2f}s vs sim "
        f"{wall['sim']:.2f}s); floor is {END_TO_END_FLOOR}x, "
        f"measured {SEED_END_TO_END}x")
