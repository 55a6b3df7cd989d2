"""Sweeper integration tests: predict mode, worker pools, caching, and
the series() lookup-error regression."""

import pytest

from repro.experiments.cache import SimCache
from repro.experiments.runner import GridPoint, SpeedupGrid, Sweeper

SMALL_BWS = (6.3, 0.3)
SMALL_LATS = (0.5, 30.0)


class TestSeriesErrors:
    """Regression: series() used to return [] (or raise a bare KeyError
    deeper in) when queried before the grid was populated."""

    def test_empty_grid_raises_clear_keyerror(self):
        grid = SpeedupGrid(app="asp", variant="optimized",
                           baseline_runtime=1.0)
        with pytest.raises(KeyError, match="asp/optimized.*no points"):
            grid.series(3.3)

    def test_missing_latency_names_available_series(self):
        grid = SpeedupGrid(app="water", variant="unoptimized",
                           baseline_runtime=1.0)
        grid.points[(6.3, 0.5)] = GridPoint(6.3, 0.5, 2.0, 50.0)
        with pytest.raises(KeyError, match=r"water/unoptimized.*99.*0\.5"):
            grid.series(99.0)


class TestPredictMode:
    def test_predicted_grid_matches_simulated_within_tolerance(self):
        predicted = Sweeper(backend="predict").speedup_grid(
            "asp", "optimized", bandwidths=SMALL_BWS, latencies=SMALL_LATS)
        assert predicted.predicted
        assert not predicted.decision.validation.fallback
        simulated = Sweeper().speedup_grid(
            "asp", "optimized", bandwidths=SMALL_BWS, latencies=SMALL_LATS)
        for key in simulated.points:
            err = abs(predicted.points[key].relative_speedup_pct
                      - simulated.points[key].relative_speedup_pct)
            assert err <= 5.0

    def test_timing_dependent_app_falls_back_to_simulation(self):
        grid = Sweeper(backend="predict").speedup_grid(
            "tsp", "optimized", bandwidths=SMALL_BWS, latencies=SMALL_LATS)
        assert not grid.predicted
        assert grid.decision.validation.fallback
        assert len(grid.points) == 4  # still fully populated, via simulation

    def test_speedup_at_uses_predictor(self):
        sweeper = Sweeper(backend="predict")
        point = sweeper.speedup_at("asp", "optimized", 0.95, 3.3)
        truth = Sweeper().speedup_at("asp", "optimized", 0.95, 3.3)
        assert abs(point.relative_speedup_pct
                   - truth.relative_speedup_pct) <= 5.0


class TestWorkers:
    def test_parallel_grid_identical_to_serial(self):
        serial = Sweeper().speedup_grid(
            "asp", "optimized", bandwidths=SMALL_BWS, latencies=SMALL_LATS)
        parallel = Sweeper(workers=2).speedup_grid(
            "asp", "optimized", bandwidths=SMALL_BWS, latencies=SMALL_LATS)
        assert list(serial.points) == list(parallel.points)  # same order
        for key in serial.points:
            assert serial.points[key].runtime == parallel.points[key].runtime
            assert (serial.points[key].relative_speedup_pct
                    == parallel.points[key].relative_speedup_pct)


class TestSweeperCache:
    def test_grid_points_are_cached_and_reused(self, tmp_path):
        cache = SimCache(str(tmp_path / "cache"))
        sweeper = Sweeper(cache=cache)
        sweeper.speedup_grid("asp", "optimized",
                             bandwidths=SMALL_BWS, latencies=SMALL_LATS)
        assert len(cache) >= 4  # grid points + baseline
        fresh = Sweeper(cache=cache)
        grid = fresh.speedup_grid("asp", "optimized",
                                  bandwidths=SMALL_BWS, latencies=SMALL_LATS)
        assert cache.hits >= 5
        assert len(grid.points) == 4

    def test_parallel_sweep_fills_cache(self, tmp_path):
        cache = SimCache(str(tmp_path / "cache"))
        Sweeper(workers=2, cache=cache).speedup_grid(
            "asp", "optimized", bandwidths=SMALL_BWS, latencies=SMALL_LATS)
        assert len(cache) >= 4
