"""Water: kernel correctness, ownership structure, and both parallel
variants validated against the sequential reference on real data."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import run_app
from repro.apps.water import WaterConfig, kernel, need_set, providers
from repro.apps.water.parallel import _tie_pair_count, tie_parity, tie_partner
from repro.network import das_topology, single_cluster


# ----------------------------------------------------------------------
# Kernel
# ----------------------------------------------------------------------
class TestKernel:
    def test_init_is_deterministic(self):
        p1, v1 = kernel.init_molecules(10, seed=3)
        p2, v2 = kernel.init_molecules(10, seed=3)
        assert np.array_equal(p1, p2) and np.array_equal(v1, v2)

    def test_positions_inside_box(self):
        pos, _ = kernel.init_molecules(100, seed=1)
        assert np.all(pos >= 0) and np.all(pos <= kernel.BOX_SIZE)

    def test_pair_forces_newtons_third_law(self):
        a, _ = kernel.init_molecules(5, seed=1)
        b, _ = kernel.init_molecules(7, seed=2)
        f_a, f_b = kernel.pair_forces(a, b)
        # Total momentum exchange balances exactly.
        assert np.allclose(f_a.sum(axis=0), -f_b.sum(axis=0))

    def test_internal_forces_sum_to_zero(self):
        pos, _ = kernel.init_molecules(20, seed=4)
        forces = kernel.internal_forces(pos)
        assert np.allclose(forces.sum(axis=0), 0.0, atol=1e-9)

    def test_internal_forces_decompose_over_partition(self):
        """internal(all) == internal(A) + internal(B) + pair(A, B)."""
        pos, _ = kernel.init_molecules(12, seed=5)
        a, b = pos[:5], pos[5:]
        whole = kernel.internal_forces(pos)
        f_a = kernel.internal_forces(a)
        f_b = kernel.internal_forces(b)
        pa, pb = kernel.pair_forces(a, b)
        assert np.allclose(whole[:5], f_a + pa, atol=1e-9)
        assert np.allclose(whole[5:], f_b + pb, atol=1e-9)

    def test_integrate_wraps_into_box(self):
        pos = np.array([[kernel.BOX_SIZE - 1e-4, 0.0, 5.0]])
        vel = np.array([[1.0, 0.0, 0.0]])
        forces = np.zeros_like(pos)
        new_pos, _ = kernel.integrate(pos, vel, forces)
        assert np.all(new_pos >= 0) and np.all(new_pos < kernel.BOX_SIZE)

    def test_serial_water_runs(self):
        pos, vel = kernel.serial_water(16, iterations=3, seed=0)
        assert pos.shape == (16, 3) and vel.shape == (16, 3)
        assert np.all(np.isfinite(pos))

    @given(st.integers(min_value=1, max_value=200),
           st.integers(min_value=1, max_value=32))
    def test_partition_is_balanced_cover(self, n, p):
        blocks = [kernel.partition(n, p, r) for r in range(p)]
        covered = [i for b in blocks for i in b]
        assert covered == list(range(n))
        sizes = [len(b) for b in blocks]
        assert max(sizes) - min(sizes) <= 1


# ----------------------------------------------------------------------
# Ownership structure
# ----------------------------------------------------------------------
class TestNeedSet:
    @given(st.integers(min_value=1, max_value=33))
    def test_every_owner_pair_covered(self, p):
        """Non-tie pairs assigned once; tie pairs (even p, distance p/2)
        appear in both owners' sets and are split at molecule level."""
        count = {}
        for i in range(p):
            for q in need_set(i, p):
                key = tuple(sorted((i, q)))
                count[key] = count.get(key, 0) + 1
        expected = {tuple(sorted((a, b))) for a in range(p) for b in range(a + 1, p)}
        assert set(count) == expected
        for (a, b), v in count.items():
            is_tie = p % 2 == 0 and (b - a) % p == p // 2
            assert v == (2 if is_tie else 1)

    @given(st.integers(min_value=1, max_value=30),
           st.integers(min_value=1, max_value=30))
    def test_tie_split_is_exact_partition(self, n, m):
        assert _tie_pair_count(n, m, 0) + _tie_pair_count(n, m, 1) == n * m
        assert abs(_tie_pair_count(n, m, 0) - _tie_pair_count(n, m, 1)) <= 1
        mask0 = kernel.parity_mask(n, m, 0)
        mask1 = kernel.parity_mask(m, n, 1).T
        # The two owners' masks tile the pair grid exactly.
        assert np.all(mask0 ^ mask1)
        assert mask0.sum() == _tie_pair_count(n, m, 0)

    @given(st.integers(min_value=2, max_value=32).filter(lambda p: p % 2 == 0))
    def test_tie_partner_symmetric(self, p):
        for i in range(p):
            t = tie_partner(i, p)
            assert tie_partner(t, p) == i
            assert tie_parity(i, p) != tie_parity(t, p)

    @given(st.integers(min_value=2, max_value=33))
    def test_providers_is_inverse_of_need_set(self, p):
        for i in range(p):
            for r in providers(i, p):
                assert i in need_set(r, p)

    def test_halves_balanced_for_even_p(self):
        p = 8
        sizes = [len(need_set(i, p)) for i in range(p)]
        # Every rank talks to exactly p/2 partners (tie counted on both
        # sides), so the all-to-half pattern is perfectly balanced.
        assert sizes == [p // 2] * p

    def test_single_rank_has_no_partners(self):
        assert need_set(0, 1) == []
        assert providers(0, 1) == []


# ----------------------------------------------------------------------
# Parallel vs. serial reference (real data, tiny scale)
# ----------------------------------------------------------------------
REAL_CFG = WaterConfig(molecules=24, iterations=3, real_data=True)
REAL_SEED = 7


def gathered_positions(result, n, p):
    chunks = [result.results[r] for r in range(p)]
    return np.concatenate(chunks, axis=0)


@pytest.mark.parametrize("variant", ["unoptimized", "optimized"])
@pytest.mark.parametrize("topo", [single_cluster(4),
                                  das_topology(clusters=2, cluster_size=2),
                                  das_topology(clusters=3, cluster_size=2)])
def test_parallel_matches_serial_reference(variant, topo):
    result = run_app("water", variant, topo, config=REAL_CFG, seed=REAL_SEED)
    final = gathered_positions(result, REAL_CFG.molecules, topo.num_ranks)
    ref_pos, _ = kernel.serial_water(REAL_CFG.molecules, REAL_CFG.iterations,
                                     REAL_SEED)
    assert np.allclose(final, ref_pos, atol=1e-8)


def test_variants_agree_with_each_other():
    topo = das_topology(clusters=2, cluster_size=3)
    r_unopt = run_app("water", "unoptimized", topo, config=REAL_CFG,
                      seed=REAL_SEED)
    r_opt = run_app("water", "optimized", topo, config=REAL_CFG,
                    seed=REAL_SEED)
    p = topo.num_ranks
    a = gathered_positions(r_unopt, REAL_CFG.molecules, p)
    b = gathered_positions(r_opt, REAL_CFG.molecules, p)
    assert np.allclose(a, b, atol=1e-8)


# ----------------------------------------------------------------------
# Communication structure (scaled mode)
# ----------------------------------------------------------------------
SCALED_CFG = WaterConfig(molecules=1500, iterations=1)


def test_optimized_reduces_wan_traffic():
    topo = das_topology(clusters=4, cluster_size=8)
    r_unopt = run_app("water", "unoptimized", topo, config=SCALED_CFG)
    r_opt = run_app("water", "optimized", topo, config=SCALED_CFG)
    assert r_opt.stats.inter.bytes < r_unopt.stats.inter.bytes / 2
    assert r_opt.stats.inter.messages < r_unopt.stats.inter.messages


def test_optimized_increases_local_traffic():
    """The coordinator scheme trades WAN traffic for extra local copies."""
    topo = das_topology(clusters=4, cluster_size=8)
    r_unopt = run_app("water", "unoptimized", topo, config=SCALED_CFG)
    r_opt = run_app("water", "optimized", topo, config=SCALED_CFG)
    assert r_opt.stats.intra.bytes > r_unopt.stats.intra.bytes


def test_optimized_wins_on_slow_wan():
    topo = das_topology(clusters=4, cluster_size=8,
                        wan_latency_ms=10.0, wan_bandwidth_mbyte_s=0.3)
    t_unopt = run_app("water", "unoptimized", topo, config=SCALED_CFG).runtime
    t_opt = run_app("water", "optimized", topo, config=SCALED_CFG).runtime
    assert t_opt < t_unopt


def test_variants_converge_on_fast_wan():
    """Paper, Section 5.1: on the fastest inter-cluster links the
    unoptimized program was (slightly) faster.  Our first-order model has
    no Orca RPC software cost, so the crossover sits just beyond the
    6.3 MByte/s grid edge; what must hold is that the two variants are
    within a few percent at the fastest setting while the optimized one
    wins big once the gap grows (see EXPERIMENTS.md, deviation D2).
    """
    fast = das_topology(clusters=4, cluster_size=8,
                        wan_latency_ms=0.4, wan_bandwidth_mbyte_s=6.3)
    t_unopt = run_app("water", "unoptimized", fast, config=SCALED_CFG).runtime
    t_opt = run_app("water", "optimized", fast, config=SCALED_CFG).runtime
    assert t_opt == pytest.approx(t_unopt, rel=0.10)

    slow = das_topology(clusters=4, cluster_size=8,
                        wan_latency_ms=0.4, wan_bandwidth_mbyte_s=0.1)
    s_unopt = run_app("water", "unoptimized", slow, config=SCALED_CFG).runtime
    s_opt = run_app("water", "optimized", slow, config=SCALED_CFG).runtime
    # The optimized advantage grows as bandwidth shrinks.
    assert s_opt < s_unopt * 0.6
    assert (s_unopt / s_opt) > (t_unopt / t_opt)


def test_single_cluster_variants_equivalent():
    """On one cluster the optimization must not change behaviour much."""
    topo = single_cluster(8)
    t_unopt = run_app("water", "unoptimized", topo, config=SCALED_CFG).runtime
    t_opt = run_app("water", "optimized", topo, config=SCALED_CFG).runtime
    assert t_opt == pytest.approx(t_unopt, rel=0.05)
