"""ASP: kernel vs. networkx, parallel vs. serial reference, and the
sequencer-migration effect on latency sensitivity."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import run_app
from repro.apps.asp import AspConfig, kernel
from repro.apps.blockdist import owner_of, partition
from repro.network import das_topology, single_cluster


# ----------------------------------------------------------------------
# Block distribution
# ----------------------------------------------------------------------
@given(st.integers(min_value=1, max_value=300), st.integers(min_value=1, max_value=33))
def test_owner_of_inverts_partition(n, p):
    for rank in range(p):
        for idx in partition(n, p, rank):
            assert owner_of(n, p, idx) == rank


def test_owner_of_bounds():
    with pytest.raises(IndexError):
        owner_of(10, 2, 10)
    with pytest.raises(IndexError):
        owner_of(10, 2, -1)


# ----------------------------------------------------------------------
# Kernel
# ----------------------------------------------------------------------
class TestKernel:
    def test_diagonal_zero(self):
        dist = kernel.random_graph(20, seed=1)
        assert np.all(np.diag(dist) == 0)

    def test_floyd_warshall_matches_networkx(self):
        n = 30
        dist = kernel.random_graph(n, seed=2, density=0.3)
        result = kernel.floyd_warshall(dist)
        g = nx.DiGraph()
        g.add_nodes_from(range(n))
        for i in range(n):
            for j in range(n):
                if i != j and dist[i][j] < kernel.INF:
                    g.add_edge(i, j, weight=int(dist[i][j]))
        lengths = dict(nx.all_pairs_dijkstra_path_length(g))
        for i in range(n):
            for j in range(n):
                expected = lengths.get(i, {}).get(j)
                if expected is None:
                    assert result[i][j] >= kernel.INF // 2  # unreachable
                else:
                    assert result[i][j] == expected

    def test_floyd_warshall_idempotent(self):
        dist = kernel.random_graph(25, seed=3)
        once = kernel.floyd_warshall(dist)
        twice = kernel.floyd_warshall(once)
        assert np.array_equal(once, twice)

    def test_relax_block_equals_reference_step(self):
        dist = kernel.random_graph(16, seed=4)
        expected = dist.copy()
        np.minimum(expected, expected[:, 0, None] + expected[None, 0, :],
                   out=expected)
        block = dist.copy()
        kernel.relax_block(block, dist[:, 0], dist[0])
        assert np.array_equal(block, expected)

    def test_triangle_inequality_after_fw(self):
        dist = kernel.random_graph(20, seed=5, density=0.5)
        d = kernel.floyd_warshall(dist)
        # d[i,j] <= d[i,k] + d[k,j] for all triples (spot check exhaustively).
        lhs = d[:, None, :]
        rhs = d[:, :, None] + d[None, :, :]
        assert np.all(lhs <= rhs + 1e-9)


# ----------------------------------------------------------------------
# Parallel correctness (real data)
# ----------------------------------------------------------------------
REAL_CFG = AspConfig(n=48, real_data=True)
REAL_SEED = 6


@pytest.mark.parametrize("variant", ["unoptimized", "optimized"])
@pytest.mark.parametrize("topo", [single_cluster(4),
                                  das_topology(clusters=2, cluster_size=2),
                                  das_topology(clusters=4, cluster_size=2)])
def test_parallel_matches_reference(variant, topo):
    result = run_app("asp", variant, topo, config=REAL_CFG, seed=REAL_SEED)
    full = kernel.random_graph(REAL_CFG.n, REAL_SEED)
    expected = kernel.floyd_warshall(full)
    p = topo.num_ranks
    assembled = np.concatenate([result.results[r] for r in range(p)], axis=0)
    assert np.array_equal(assembled, expected)


# ----------------------------------------------------------------------
# Communication structure (scaled mode)
# ----------------------------------------------------------------------
# Bench-scale config: 240 pivot rows with paper-scale per-row compute and
# row size (see _default_config's scaling rule).
from repro.apps import default_config
SCALED_CFG = default_config("asp", "bench")


def test_sequencer_traffic_reduced_by_migration():
    topo = das_topology(clusters=4, cluster_size=8)
    r_unopt = run_app("asp", "unoptimized", topo, config=SCALED_CFG)
    r_opt = run_app("asp", "optimized", topo, config=SCALED_CFG)
    # Row data crosses the WAN identically; the difference is sequencer
    # round trips: 75% of 240 rows for unopt vs ~3 migrations for opt.
    delta = r_unopt.stats.inter.messages - r_opt.stats.inter.messages
    assert delta > 0.6 * SCALED_CFG.n  # most rows' RPCs eliminated


def test_optimized_tolerates_latency():
    """Paper: improved ASP good up to 30 ms; original only ~1 ms."""
    base = dict(clusters=4, cluster_size=8, wan_bandwidth_mbyte_s=6.0)
    t_u_fast = run_app("asp", "unoptimized",
                       das_topology(wan_latency_ms=0.5, **base),
                       config=SCALED_CFG).runtime
    t_u_slow = run_app("asp", "unoptimized",
                       das_topology(wan_latency_ms=30.0, **base),
                       config=SCALED_CFG).runtime
    t_o_fast = run_app("asp", "optimized",
                       das_topology(wan_latency_ms=0.5, **base),
                       config=SCALED_CFG).runtime
    t_o_slow = run_app("asp", "optimized",
                       das_topology(wan_latency_ms=30.0, **base),
                       config=SCALED_CFG).runtime
    # Unoptimized collapses with latency; optimized barely moves.
    assert t_u_slow > 3 * t_u_fast
    assert t_o_slow < 1.5 * t_o_fast
    assert t_o_slow < t_u_slow / 3


def test_optimized_still_bandwidth_sensitive():
    """Paper: 'sharp sensitivity to bandwidth below 1 MByte/s' remains."""
    base = dict(clusters=4, cluster_size=8, wan_latency_ms=0.5)
    t_hi = run_app("asp", "optimized",
                   das_topology(wan_bandwidth_mbyte_s=6.0, **base),
                   config=SCALED_CFG).runtime
    t_lo = run_app("asp", "optimized",
                   das_topology(wan_bandwidth_mbyte_s=0.03, **base),
                   config=SCALED_CFG).runtime
    assert t_lo > 2 * t_hi


def test_variants_equivalent_on_single_cluster():
    topo = single_cluster(8)
    t_unopt = run_app("asp", "unoptimized", topo, config=SCALED_CFG).runtime
    t_opt = run_app("asp", "optimized", topo, config=SCALED_CFG).runtime
    assert t_opt == pytest.approx(t_unopt, rel=0.05)
