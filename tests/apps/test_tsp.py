"""TSP: kernel correctness (vs. brute force), parallel correctness, and the
latency-sensitive / bandwidth-insensitive profile of Figure 3."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import run_app
from repro.apps.tsp import TspConfig, kernel
from repro.apps.tsp.parallel import _synthetic_durations
from repro.network import das_topology, single_cluster


# ----------------------------------------------------------------------
# Kernel
# ----------------------------------------------------------------------
def brute_force(dist):
    n = len(dist)
    return min(
        kernel.tour_length(dist, (0, *perm))
        for perm in itertools.permutations(range(1, n))
    )


class TestKernel:
    def test_distance_matrix_symmetric_zero_diagonal(self):
        dist = kernel.random_cities(8, seed=1)
        assert np.array_equal(dist, dist.T)
        assert np.all(np.diag(dist) == 0)

    def test_tour_length_closes_the_loop(self):
        dist = np.array([[0, 1, 4], [1, 0, 2], [4, 2, 0]])
        assert kernel.tour_length(dist, (0, 1, 2)) == 1 + 2 + 4

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_solver_matches_brute_force(self, n):
        dist = kernel.random_cities(n, seed=n)
        assert kernel.solve_serial(dist, depth=2) == brute_force(dist)

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_depth_does_not_change_answer(self, depth):
        dist = kernel.random_cities(7, seed=3)
        assert kernel.solve_serial(dist, depth=depth) == brute_force(dist)

    def test_greedy_bound_is_a_valid_tour_length(self):
        dist = kernel.random_cities(9, seed=2)
        assert kernel.greedy_bound(dist) >= brute_force(dist)

    def test_enumerate_jobs_count(self):
        # 16 cities, 5-city prefixes: the paper's 15*14*13*12 jobs.
        jobs = kernel.enumerate_jobs(16, 5)
        assert len(jobs) == 15 * 14 * 13 * 12
        assert all(j[0] == 0 and len(j) == 5 for j in jobs)
        assert len(set(jobs)) == len(jobs)

    def test_enumerate_jobs_validates_depth(self):
        with pytest.raises(ValueError):
            kernel.enumerate_jobs(8, 0)
        with pytest.raises(ValueError):
            kernel.enumerate_jobs(8, 9)

    def test_search_job_prunes(self):
        dist = kernel.random_cities(8, seed=5)
        bound = kernel.greedy_bound(dist)
        _, nodes_tight = kernel.search_job(dist, (0, 1), bound)
        _, nodes_loose = kernel.search_job(dist, (0, 1), bound * 10)
        assert nodes_tight <= nodes_loose


# ----------------------------------------------------------------------
# Parallel correctness (real data)
# ----------------------------------------------------------------------
REAL_CFG = TspConfig(cities=8, job_depth=3, real_data=True)
REAL_SEED = 4


@pytest.mark.parametrize("variant", ["unoptimized", "optimized"])
@pytest.mark.parametrize("topo", [single_cluster(4),
                                  das_topology(clusters=2, cluster_size=2)])
def test_parallel_finds_optimal_tour(variant, topo):
    result = run_app("tsp", variant, topo, config=REAL_CFG, seed=REAL_SEED)
    dist = kernel.random_cities(REAL_CFG.cities, REAL_SEED)
    assert result.results[0] == brute_force(dist)


def test_job_durations_deterministic_and_positive():
    cfg = TspConfig()
    d1 = _synthetic_durations(cfg, 9)[:50]
    d2 = _synthetic_durations(cfg, 9)[:50]
    assert d1 == d2
    assert all(d > 0 for d in d1)
    mean = sum(d1) / len(d1)
    assert 0.2 * cfg.mean_job_sec < mean < 5 * cfg.mean_job_sec


# ----------------------------------------------------------------------
# Communication profile (scaled mode)
# ----------------------------------------------------------------------
SCALED_CFG = TspConfig(num_jobs=512)


def test_optimized_reduces_wan_messages():
    topo = das_topology(clusters=4, cluster_size=8)
    r_unopt = run_app("tsp", "unoptimized", topo, config=SCALED_CFG)
    r_opt = run_app("tsp", "optimized", topo, config=SCALED_CFG)
    assert r_opt.stats.inter.messages < r_unopt.stats.inter.messages / 4


def test_latency_sensitive_bandwidth_insensitive():
    """TSP's Figure 3 signature: flat in bandwidth, steep in latency."""
    base = dict(clusters=4, cluster_size=8)
    t_fast = run_app("tsp", "unoptimized",
                     das_topology(wan_latency_ms=0.5, wan_bandwidth_mbyte_s=6.0, **base),
                     config=SCALED_CFG).runtime
    t_lowbw = run_app("tsp", "unoptimized",
                      das_topology(wan_latency_ms=0.5, wan_bandwidth_mbyte_s=0.1, **base),
                      config=SCALED_CFG).runtime
    t_hilat = run_app("tsp", "unoptimized",
                      das_topology(wan_latency_ms=100.0, wan_bandwidth_mbyte_s=6.0, **base),
                      config=SCALED_CFG).runtime
    assert t_lowbw < t_fast * 1.5          # 60x less bandwidth: barely matters
    assert t_hilat > t_fast * 3            # 200x more latency: dominates


def test_optimized_beats_unoptimized_on_high_latency():
    topo = das_topology(clusters=4, cluster_size=8,
                        wan_latency_ms=30.0, wan_bandwidth_mbyte_s=1.0)
    t_unopt = run_app("tsp", "unoptimized", topo, config=SCALED_CFG).runtime
    t_opt = run_app("tsp", "optimized", topo, config=SCALED_CFG).runtime
    assert t_opt < t_unopt


def test_work_conserved_across_variants():
    """Same total compute regardless of queue organization."""
    topo = das_topology(clusters=2, cluster_size=4)
    r_unopt = run_app("tsp", "unoptimized", topo, config=SCALED_CFG)
    r_opt = run_app("tsp", "optimized", topo, config=SCALED_CFG)
    compute_unopt = sum(s.compute_time for s in r_unopt.rank_stats)
    compute_opt = sum(s.compute_time for s in r_opt.rank_stats)
    assert compute_unopt == pytest.approx(compute_opt, rel=1e-9)
