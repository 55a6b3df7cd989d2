"""Barnes-Hut: octree/LET kernel accuracy, parallel-vs-direct physics,
and the cluster-combining + relaxed-barrier optimization structure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import run_app
from repro.apps.barnes import BarnesConfig, kernel
from repro.network import das_topology, single_cluster


# ----------------------------------------------------------------------
# Kernel
# ----------------------------------------------------------------------
class TestOctree:
    def test_root_mass_is_total_mass(self):
        pos, mass, _ = kernel.random_bodies(100, seed=1)
        tree = kernel.build_octree(pos, mass)
        assert tree.mass == pytest.approx(mass.sum())
        assert tree.count == 100

    def test_root_com_is_weighted_mean(self):
        pos, mass, _ = kernel.random_bodies(50, seed=2)
        tree = kernel.build_octree(pos, mass)
        expected = (pos * mass[:, None]).sum(axis=0) / mass.sum()
        assert np.allclose(tree.com, expected, atol=1e-10)

    def test_single_body_tree(self):
        pos = np.array([[1.0, 2.0, 3.0]])
        mass = np.array([5.0])
        tree = kernel.build_octree(pos, mass)
        assert tree.body == 0 and tree.mass == 5.0

    def test_tree_force_approximates_direct(self):
        pos, mass, _ = kernel.random_bodies(200, seed=3)
        tree = kernel.build_octree(pos, mass)
        direct = kernel.direct_forces(pos, mass)
        for i in range(0, 200, 17):
            approx, _ = kernel.force_on(pos[i], tree, theta=0.5, skip_body=i)
            scale = np.linalg.norm(direct[i]) + 1e-12
            assert np.linalg.norm(approx - direct[i]) / scale < 0.05

    def test_theta_zero_walk_is_exact(self):
        """With theta -> 0 no node is ever accepted: pure direct sum."""
        pos, mass, _ = kernel.random_bodies(40, seed=4)
        tree = kernel.build_octree(pos, mass)
        direct = kernel.direct_forces(pos, mass)
        for i in range(0, 40, 7):
            exact, cnt = kernel.force_on(pos[i], tree, theta=1e-9, skip_body=i)
            assert np.allclose(exact, direct[i], atol=1e-9)
            assert cnt == 39  # every other body visited individually

    def test_larger_theta_means_fewer_interactions(self):
        pos, mass, _ = kernel.random_bodies(300, seed=5)
        tree = kernel.build_octree(pos, mass)
        point = np.array([5.0, 5.0, 5.0])
        _, n_tight = kernel.force_on(point, tree, theta=0.2)
        _, n_loose = kernel.force_on(point, tree, theta=1.0)
        assert n_loose < n_tight


class TestLet:
    def test_let_conserves_mass(self):
        pos, mass, _ = kernel.random_bodies(150, seed=6)
        tree = kernel.build_octree(pos, mass)
        lo = np.array([3.0, 3.0, 3.0])
        hi = np.array([5.0, 5.0, 5.0])
        items = kernel.let_items(tree, lo, hi, theta=0.6)
        assert sum(m for _, m in items) == pytest.approx(mass.sum())

    def test_let_force_close_to_direct_for_region_points(self):
        src_pos, src_mass, _ = kernel.random_bodies(200, seed=7)
        tree = kernel.build_octree(src_pos, src_mass)
        lo = np.array([4.0, 4.0, 4.0])
        hi = np.array([6.0, 6.0, 6.0])
        items = kernel.let_items(tree, lo, hi, theta=0.5)
        rng = np.random.default_rng(8)
        for _ in range(5):
            point = rng.uniform(lo, hi)
            approx = kernel.force_from_items(point, items)
            exact = sum(kernel._accel_from(point, src_pos[j], src_mass[j])
                        for j in range(len(src_pos)))
            scale = np.linalg.norm(exact) + 1e-12
            assert np.linalg.norm(approx - exact) / scale < 0.05

    def test_distant_region_collapses_to_single_item(self):
        pos, mass, _ = kernel.random_bodies(100, seed=9)
        tree = kernel.build_octree(pos, mass)
        lo = np.array([1000.0] * 3)
        hi = np.array([1001.0] * 3)
        items = kernel.let_items(tree, lo, hi, theta=0.8)
        assert len(items) == 1

    def test_overlapping_region_ships_all_bodies(self):
        pos, mass, _ = kernel.random_bodies(60, seed=10)
        tree = kernel.build_octree(pos, mass)
        lo, hi = pos.min(axis=0), pos.max(axis=0)
        items = kernel.let_items(tree, lo, hi, theta=0.5)
        assert len(items) == 60  # region overlaps every cell: no pruning


class TestMorton:
    @given(st.integers(min_value=1, max_value=300))
    def test_morton_order_is_a_permutation(self, n):
        pos, _, _ = kernel.random_bodies(n, seed=n)
        order = kernel.morton_order(pos)
        assert sorted(order.tolist()) == list(range(n))

    def test_morton_groups_nearby_points(self):
        """Consecutive Morton blocks are spatially tighter than random."""
        pos, _, _ = kernel.random_bodies(512, seed=11)
        order = kernel.morton_order(pos)
        sorted_pos = pos[order]
        block_spread = np.mean([sorted_pos[i:i + 64].std(axis=0).mean()
                                for i in range(0, 512, 64)])
        assert block_spread < pos.std(axis=0).mean()


# ----------------------------------------------------------------------
# Parallel correctness (real data)
# ----------------------------------------------------------------------
REAL_CFG = BarnesConfig(bodies=192, iterations=2, real_data=True, theta=0.5)
REAL_SEED = 12


@pytest.mark.parametrize("variant", ["unoptimized", "optimized"])
def test_parallel_physics_close_to_direct_sum(variant):
    """One iteration of the parallel code matches the direct O(n^2)
    integrator to Barnes-Hut accuracy."""
    cfg = BarnesConfig(bodies=192, iterations=1, real_data=True, theta=0.4)
    topo = das_topology(clusters=2, cluster_size=2)
    result = run_app("barnes", variant, topo, config=cfg, seed=REAL_SEED)

    all_pos, all_mass, all_vel = kernel.random_bodies(cfg.bodies, REAL_SEED)
    order = kernel.morton_order(all_pos)
    forces = kernel.direct_forces(all_pos, all_mass)
    ref_vel = all_vel + cfg.dt * forces
    ref_pos = all_pos + cfg.dt * ref_vel

    got_pos = np.concatenate([result.results[r][0] for r in range(4)])
    expected = ref_pos[order]
    assert np.allclose(got_pos, expected, rtol=0, atol=2e-4)


def test_variants_agree_to_bh_accuracy():
    """The optimized variant ships *union* LETs per cluster — finer than
    each member's own LET (the union box's acceptance criterion is
    stricter), so results differ from the unoptimized run only within
    Barnes-Hut approximation error."""
    topo = das_topology(clusters=2, cluster_size=2)
    r_u = run_app("barnes", "unoptimized", topo, config=REAL_CFG,
                  seed=REAL_SEED)
    r_o = run_app("barnes", "optimized", topo, config=REAL_CFG,
                  seed=REAL_SEED)
    for a, b in zip(r_u.results, r_o.results):
        assert np.allclose(a[0], b[0], atol=2e-3)
        assert np.allclose(a[1], b[1], atol=2e-3)


# ----------------------------------------------------------------------
# Communication structure (scaled mode)
# ----------------------------------------------------------------------
SCALED_CFG = BarnesConfig(bodies=65_536, iterations=1)


def test_optimized_cuts_wan_messages_and_bytes():
    topo = das_topology(clusters=4, cluster_size=8)
    r_u = run_app("barnes", "unoptimized", topo, config=SCALED_CFG)
    r_o = run_app("barnes", "optimized", topo, config=SCALED_CFG)
    # 32 senders x 24 remote recipients vs 32 senders x 3 gateway bundles.
    assert r_u.stats.inter.messages >= 32 * 24
    assert r_o.stats.inter.messages == 32 * 3
    # Union LETs: bytes drop by cluster_size / union_factor = 8 / 2.5.
    expected = 32 * 3 * SCALED_CFG.let_bytes_per_pair * SCALED_CFG.let_union_factor
    assert r_o.stats.inter.bytes == pytest.approx(expected, rel=0.01)
    assert r_o.stats.inter.bytes < r_u.stats.inter.bytes / 3


def test_optimized_faster_on_slow_wan():
    topo = das_topology(clusters=4, cluster_size=8,
                        wan_latency_ms=10.0, wan_bandwidth_mbyte_s=0.95)
    t_u = run_app("barnes", "unoptimized", topo, config=SCALED_CFG).runtime
    t_o = run_app("barnes", "optimized", topo, config=SCALED_CFG).runtime
    assert t_o < t_u


def test_relaxed_barriers_help_at_high_latency():
    """At 100 ms the three flat barriers per iteration each cost WAN round
    trips; the sequence-number variant avoids them."""
    topo = das_topology(clusters=4, cluster_size=8,
                        wan_latency_ms=100.0, wan_bandwidth_mbyte_s=6.0)
    t_u = run_app("barnes", "unoptimized", topo, config=SCALED_CFG).runtime
    t_o = run_app("barnes", "optimized", topo, config=SCALED_CFG).runtime
    assert t_o < t_u * 0.7
