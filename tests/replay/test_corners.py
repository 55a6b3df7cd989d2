"""Acceptance: replayed grids are repr-equal to full sweeps at corners.

For every app x variant x seed in the paper's suite, a
``backend="replay"`` grid must agree with a ground-truth sweep at the
spot-check points down to the last bit of the repr — not "close":
*identical floats*.  The ladder makes this hold by construction on
every rung: vectorized and predict-downgraded grids splice in the
simulated corner runtimes their validation computed anyway, and
simulate-fallback grids are ground truth everywhere.

The two sweepers share one on-disk cache, exactly like CLI + serve
traffic sharing a results directory — which is also what keeps this
module cheap (the ground-truth sweep re-reads the validation corners).
"""

import pytest

from repro.experiments.cache import SimCache
from repro.experiments.runner import Sweeper

#: corner axes of the paper's grid: a full sweep over them simulates
#: exactly the four points replay validation simulates
CORNER_BWS = (6.3, 0.03)
CORNER_LATS = (0.5, 300.0)

#: mild axes for the timing-sensitive apps (their grids fully simulate,
#: so extreme WAN points would just burn time proving the same equality)
MILD_BWS = (6.3, 2.6)
MILD_LATS = (0.5, 1.3)

DETERMINISTIC = [
    ("water", "unoptimized"), ("water", "optimized"),
    ("barnes", "unoptimized"), ("barnes", "optimized"),
    ("asp", "unoptimized"), ("asp", "optimized"),
    ("fft", "unoptimized"), ("fft", "optimized"),
]
TIMING_DEPENDENT = [
    ("tsp", "unoptimized"), ("tsp", "optimized"),
    ("awari", "unoptimized"), ("awari", "optimized"),
]

#: which fallback rung each deterministic app must land on (empirical,
#: stable: asp/barnes freeze orders cleanly; fft's re-sorted orders
#: converge under the adaptive engine; water's do not and it keeps the
#: per-point evaluator).  Corner repr-equality below covers the
#: vectorized-adaptive rung too: its grids splice in the simulated
#: validation corners exactly like the other analytic rungs.
EXPECTED_MODE = {"asp": "replay", "barnes": "replay",
                 "fft": "vectorized-adaptive", "water": "predict"}

SEEDS = (0, 7)


@pytest.fixture(scope="module")
def shared_cache(tmp_path_factory):
    return SimCache(str(tmp_path_factory.mktemp("corner-cache")))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("app,variant", DETERMINISTIC)
def test_corner_repr_equality_deterministic(app, variant, seed, shared_cache):
    replayed = Sweeper(backend="replay", seed=seed,
                       cache=shared_cache).speedup_grid(app, variant)
    assert replayed.backend == EXPECTED_MODE[app]
    assert replayed.predicted
    assert len(replayed.points) == 42

    truth = Sweeper(seed=seed, cache=shared_cache).speedup_grid(
        app, variant, bandwidths=CORNER_BWS, latencies=CORNER_LATS)
    assert truth.backend == "simulate" and not truth.predicted
    assert repr(replayed.baseline_runtime) == repr(truth.baseline_runtime)
    for key, truth_point in truth.points.items():
        assert repr(replayed.points[key]) == repr(truth_point)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("app,variant", TIMING_DEPENDENT)
def test_corner_repr_equality_timing_dependent(app, variant, seed,
                                               shared_cache):
    replayed = Sweeper(backend="replay", seed=seed,
                       cache=shared_cache).speedup_grid(
        app, variant, bandwidths=MILD_BWS, latencies=MILD_LATS)
    assert replayed.backend == "simulate"
    assert not replayed.predicted
    assert replayed.decision.validation.fallback

    truth = Sweeper(seed=seed, cache=shared_cache).speedup_grid(
        app, variant, bandwidths=MILD_BWS, latencies=MILD_LATS)
    assert repr(replayed.baseline_runtime) == repr(truth.baseline_runtime)
    for key, truth_point in truth.points.items():
        assert repr(replayed.points[key]) == repr(truth_point)


@pytest.mark.parametrize("app,variant,rung", [
    ("asp", "optimized", "replay"),
    ("fft", "unoptimized", "vectorized-adaptive"),
    ("water", "optimized", "predict")])
def test_speedup_at_reads_the_grid_everywhere(app, variant, rung,
                                              shared_cache):
    """Figure 4 and ``clusters`` read ``speedup_at``: at every paper
    point it must be the grid's point to the last bit of the repr — the
    simulated runtime at a validated corner, elsewhere the rung's price,
    which does not depend on how many points are priced with it."""
    sweeper = Sweeper(backend="replay", cache=shared_cache)
    grid = sweeper.speedup_grid(app, variant)
    assert grid.backend == rung and len(grid.points) == 42
    for (bw, lat), point in grid.points.items():
        assert repr(sweeper.speedup_at(app, variant, bw, lat)) == repr(point)
