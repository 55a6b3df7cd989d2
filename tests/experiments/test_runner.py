"""Tests for the sweep runner and grids."""

import pytest

from repro.experiments import grids
from repro.experiments.cache import SimCache
from repro.experiments.runner import Sweeper


def test_grid_constants_match_paper():
    assert grids.BANDWIDTHS_MBYTE_S == (6.3, 2.6, 0.95, 0.3, 0.1, 0.03)
    assert grids.LATENCIES_MS == (0.5, 1.3, 3.3, 10.0, 30.0, 100.0, 300.0)
    assert grids.NUM_CLUSTERS * grids.CLUSTER_SIZE == 32
    assert set(grids.APPS) == {"water", "barnes", "tsp", "asp", "awari", "fft"}


def test_multi_cluster_builder():
    topo = grids.multi_cluster(0.95, 30.0)
    assert topo.num_ranks == 32
    assert topo.wide.latency == pytest.approx(0.030)
    assert topo.wide.bandwidth == pytest.approx(0.95e6)


def test_baseline_is_single_cluster():
    topo = grids.baseline()
    assert topo.num_clusters == 1 and topo.num_ranks == 32


class TestSweeper:
    def test_baseline_is_cached(self):
        sweeper = Sweeper(scale="bench")
        a = sweeper.baseline_runtime("tsp", "unoptimized")
        b = sweeper.baseline_runtime("tsp", "unoptimized")
        assert a == b
        assert ("tsp", "unoptimized", 32) in sweeper._baseline_cache

    def test_speedup_at_returns_sane_point(self):
        sweeper = Sweeper(scale="bench")
        point = sweeper.speedup_at("tsp", "unoptimized", 6.3, 0.5)
        assert 0 < point.relative_speedup_pct <= 110
        assert point.runtime > sweeper.baseline_runtime("tsp", "unoptimized") * 0.9

    def test_grid_covers_requested_points(self):
        sweeper = Sweeper(scale="bench")
        grid = sweeper.speedup_grid("tsp", "optimized",
                                    bandwidths=(6.3, 0.3), latencies=(0.5, 30.0))
        assert set(grid.points) == {(6.3, 0.5), (6.3, 30.0), (0.3, 0.5), (0.3, 30.0)}
        series = grid.series(30.0)
        assert [p.bandwidth_mbyte_s for p in series] == [0.3, 6.3]

    def test_communication_time_pct_bounded(self):
        sweeper = Sweeper(scale="bench")
        pct = sweeper.communication_time_pct("tsp", "unoptimized", 0.95, 10.0)
        assert 0.0 <= pct < 100.0

    def test_monotone_in_latency_for_synchronous_app(self):
        sweeper = Sweeper(scale="bench")
        curve = [sweeper.speedup_at("asp", "unoptimized", 6.3, lat).relative_speedup_pct
                 for lat in (0.5, 10.0, 100.0)]
        assert curve[0] > curve[1] > curve[2]


# ----------------------------------------------------------------------
# The run seed names the problem instance
# ----------------------------------------------------------------------
#: Figure 3's middle: 0.95 MByte/s, 10 ms
MIDDLE = (0.95, 10.0)
#: apps whose timing depends on the instance; the other four get new
#: data, but the cost model charges messages by size, not by value
INSTANCE_TIMED = ("tsp", "awari")


@pytest.mark.parametrize("app", sorted(grids.APPS))
def test_seed_names_the_instance(app):
    seed0 = Sweeper(seed=0).speedup_at(app, "optimized", *MIDDLE)
    seed7 = Sweeper(seed=7).speedup_at(app, "optimized", *MIDDLE)
    if app in INSTANCE_TIMED:
        assert seed7.runtime != seed0.runtime
    else:
        assert repr(seed7) == repr(seed0)


@pytest.mark.parametrize("app", INSTANCE_TIMED)
def test_other_instances_still_land_on_simulate(app, tmp_path):
    sweeper = Sweeper(seed=7, backend="replay",
                      cache=SimCache(str(tmp_path)))
    assert sweeper.decision(app, "optimized").rung == "simulate"
