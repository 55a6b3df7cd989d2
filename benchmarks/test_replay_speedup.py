"""Replay backend speed guards: in-process ratios, no absolute times.

:mod:`repro.whatif` made grids faster than simulating by replaying the
recorded DAG analytically, one ``Evaluator.evaluate`` call per grid
point.  :mod:`repro.replay` does not step events at all: the DAG is
compiled once into a flat array program and the whole grid prices in one
vectorized pass.  Four ratios are pinned here, each side timed
interleaved with the other in one process (``conftest.interleaved_min``:
A, B, A, B ... — the minimum of each), so the host's speed cancels:

- **replay over predict** (asp/optimized): 42 ``Evaluator.evaluate``
  calls against one ``ReplayProgram.price_grid`` call over the same 42
  points, with a spot check that both price the same physics;
- **the dense regime** (asp/optimized): points per second of one
  ``price_grid`` call over a seeded 16 x 16 off-paper grid — what the
  ledger's ``price_grids`` workload times — over the evaluator's points
  per second on the paper grid;
- **the cold ladder against the sweep it replaces**: record, compile,
  probe, corner-validate and price through ``Sweeper(backend="replay")``
  into an empty cache, against ``Sweeper()`` simulating the same panel;
- **adaptive over predict** (fft/unoptimized): the vectorized-adaptive
  rung at its *measured* envelope.  Re-sorted orders were expected to
  fix in 2-3 sweeps; measured, fft's value corrections drain through
  roughly one queue boundary per iteration and need up to ~30, so the
  adaptive grid prices at a bit over half of the predict path's
  speed.  The rung's value is the *batched exact* path (bitwise
  agreement with the evaluator at every converged point, plus the loss
  axis), not raw speed, and the guard pins that honest ratio.

Every floor is half the ratio measured in a fresh process on the
reference container (written beside it), as in
``test_zero_cost_when_off.py``: a tripwire for an engine regression, not
a micrometer.  Throughputs in points/s are the ledger's
(``whatif.eval_points_per_s``, ``replay.price_points_per_s``,
``replay.adaptive_points_per_s`` on ``price_grids``).
"""

import random
import tempfile

import pytest

from repro.experiments import grids
from repro.experiments.cache import SimCache
from repro.experiments.runner import Sweeper
from repro.replay.backend import ReplayBackend

from conftest import interleaved_min

#: predict / replay wall: 14.1 35.3 35.1 37.9 39.0 in five fresh-process
#: runs at the one sweep kernel (17.5 at best before it, 8.5 in the slow
#: one of its two regimes).  Two regimes remain, and they are BLAS's: in
#: one process of five every ``price_grid`` paid the ~16 ms it takes to
#: wake OpenBLAS's worker thread for the edge matmul (docs/campaigns/
#: 19.md); the floor is set from that one
SEED_REPLAY_SPEEDUP = 14.0
REPLAY_SPEEDUP_FLOOR = 0.5 * SEED_REPLAY_SPEEDUP
#: 16 x 16 ``price_grid`` points/s over paper-grid ``evaluate`` points/s:
#: 35.1 82.0 81.2 79.8 81.3 in the same five runs (45.9-50.9 before)
SEED_DENSE_SPEEDUP = 35.0
DENSE_SPEEDUP_FLOOR = 0.5 * SEED_DENSE_SPEEDUP
DENSE_AXIS = 16
#: simulated sweep / cold ladder wall of one panel, measured 4.3-5.2
SEED_COLD_LADDER_SPEEDUP = 4.5
COLD_LADDER_FLOOR = 0.5 * SEED_COLD_LADDER_SPEEDUP
#: predict / adaptive wall: 0.55 0.60 0.62 0.57 0.58 in the same five
#: runs (0.43-0.47 before the shared kernel; the module docstring says
#: why not 10x)
SEED_ADAPTIVE_RATIO = 0.55
ADAPTIVE_RATIO_FLOOR = 0.5 * SEED_ADAPTIVE_RATIO
GRID = [(bw, lat) for lat in grids.LATENCIES_MS
        for bw in grids.BANDWIDTHS_MBYTE_S]


@pytest.fixture(scope="module")
def prepared():
    backend = ReplayBackend.for_app("asp", "optimized")
    return backend.prepare(), backend.evaluator


@pytest.fixture(scope="module")
def prepared_fft():
    backend = ReplayBackend.for_app("fft", "unoptimized")
    return backend.prepare_adaptive(), backend.evaluator


def eval_grid(evaluator):
    return [evaluator.evaluate(grids.multi_cluster(bw, lat))
            for bw, lat in GRID]


def test_replay_grid_faster_than_predict(prepared):
    program, evaluator = prepared

    # Same physics on both paths: asp is order-stable, so the compiled
    # program must agree with the evaluator tightly at the reference.
    priced = program.price_grid(grids.BANDWIDTHS_MBYTE_S, grids.LATENCIES_MS)
    ref = eval_grid(evaluator)[GRID.index((0.95, 3.3))]
    vectorized = float(priced[list(grids.LATENCIES_MS).index(3.3)]
                       [list(grids.BANDWIDTHS_MBYTE_S).index(0.95)])
    assert abs(vectorized - ref) / ref < 0.02

    wall = interleaved_min(
        predict=lambda: eval_grid(evaluator),
        replay=lambda: program.price_grid(grids.BANDWIDTHS_MBYTE_S,
                                          grids.LATENCIES_MS))
    ratio = wall["predict"] / wall["replay"]
    assert ratio >= REPLAY_SPEEDUP_FLOOR, (
        f"vectorized grid only {ratio:.1f}x faster than the predict path "
        f"(eval {wall['predict'] * 1e3:.1f}ms vs price "
        f"{wall['replay'] * 1e3:.1f}ms for {len(GRID)} points); floor is "
        f"{REPLAY_SPEEDUP_FLOOR}x, measured {SEED_REPLAY_SPEEDUP}x")


def test_dense_grid_points_per_s_over_predict(prepared):
    """The regime the ledger times: one 16 x 16 off-paper grid a call
    (each (nodes x points) matrix is tens of MB, so this is where a
    kernel that allocates or re-faults them per call shows)."""
    program, evaluator = prepared
    rng = random.Random(19)

    def axis(values):
        lo, ratio = min(values), max(values) / min(values)
        return [lo * ratio ** ((i + rng.random()) / DENSE_AXIS)
                for i in range(DENSE_AXIS)]

    bws, lats = axis(grids.BANDWIDTHS_MBYTE_S), axis(grids.LATENCIES_MS)
    assert program.price_grid(bws, lats).shape == (DENSE_AXIS, DENSE_AXIS)

    wall = interleaved_min(
        predict=lambda: eval_grid(evaluator),
        dense=lambda: program.price_grid(bws, lats))
    ratio = ((DENSE_AXIS * DENSE_AXIS / wall["dense"])
             / (len(GRID) / wall["predict"]))
    assert ratio >= DENSE_SPEEDUP_FLOOR, (
        f"dense grid prices only {ratio:.1f}x the predict path's points "
        f"per second ({wall['dense'] * 1e3:.1f}ms for "
        f"{DENSE_AXIS * DENSE_AXIS} points vs eval "
        f"{wall['predict'] * 1e3:.1f}ms for {len(GRID)}); floor is "
        f"{DENSE_SPEEDUP_FLOOR}x, measured {SEED_DENSE_SPEEDUP}x")


def test_cold_ladder_against_the_sweep_it_replaces(tmp_path):
    """The whole ladder with nothing cached — record the DAG, compile
    it, probe it, corner-validate it, price the grid — against simulating
    the same 42 points.  Every round gets an empty cache, so no round
    ever warms the next."""
    def cold_ladder():
        cache = SimCache(tempfile.mkdtemp(dir=tmp_path))
        grid = Sweeper(backend="replay", cache=cache).speedup_grid(
            "asp", "optimized")
        assert grid.backend == "replay"
        assert len(grid.points) == len(GRID)

    wall = interleaved_min(
        simulate=lambda: Sweeper().speedup_grid("asp", "optimized"),
        ladder=cold_ladder)
    ratio = wall["simulate"] / wall["ladder"]
    assert ratio >= COLD_LADDER_FLOOR, (
        f"cold replay grid only {ratio:.2f}x faster than simulating the "
        f"panel (ladder {wall['ladder']:.2f}s vs sweep "
        f"{wall['simulate']:.2f}s); floor is {COLD_LADDER_FLOOR}x, "
        f"measured {SEED_COLD_LADDER_SPEEDUP}x")


def test_adaptive_grid_within_honest_ratio_of_predict(prepared_fft):
    """The vectorized-adaptive guard, at the measured floor.

    fft's whole-grid adaptive pass must stay within
    ``ADAPTIVE_RATIO_FLOOR`` of the interpreted predict path's
    throughput *and* converge every point exactly — the rung trades
    wall time for batched bitwise convergence, and both halves of that
    trade are pinned.
    """
    program, evaluator = prepared_fft
    result = program.price_grid_adaptive(grids.BANDWIDTHS_MBYTE_S,
                                         grids.LATENCIES_MS)
    assert result.all_converged, result.summary()

    wall = interleaved_min(
        predict=lambda: eval_grid(evaluator),
        adaptive=lambda: program.price_grid_adaptive(
            grids.BANDWIDTHS_MBYTE_S, grids.LATENCIES_MS))
    ratio = wall["predict"] / wall["adaptive"]
    assert ratio >= ADAPTIVE_RATIO_FLOOR, (
        f"adaptive grid at {ratio:.2f}x the predict path (eval "
        f"{wall['predict'] * 1e3:.1f}ms vs adaptive "
        f"{wall['adaptive'] * 1e3:.1f}ms for {len(GRID)} points); "
        f"floor is {ADAPTIVE_RATIO_FLOOR}x, measured "
        f"{SEED_ADAPTIVE_RATIO}x")
