"""Awari: retrograde kernel vs. minimax, distributed solve vs. serial,
and the message-combining / relay structure of both variants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import run_app
from repro.apps.awari import AwariConfig, kernel
from repro.network import das_topology, single_cluster


# ----------------------------------------------------------------------
# Kernel
# ----------------------------------------------------------------------
class TestKernel:
    def test_standard_nim_123_losses_are_multiples_of_4(self):
        game = kernel.SubtractionGame(40, takes=(1, 2, 3))
        values = kernel.retrograde_solve(game)
        for state, value in values.items():
            expected = kernel.LOSS if state % 4 == 0 else kernel.WIN
            assert value == expected, state

    @given(
        n_max=st.integers(min_value=0, max_value=120),
        takes=st.sets(st.integers(min_value=1, max_value=7), min_size=1, max_size=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_retrograde_matches_minimax(self, n_max, takes):
        game = kernel.SubtractionGame(n_max, takes)
        assert kernel.retrograde_solve(game) == kernel.minimax_solve(game)

    def test_terminal_states_are_losses(self):
        game = kernel.SubtractionGame(10, takes=(3, 4))
        values = kernel.retrograde_solve(game)
        assert values[0] == kernel.LOSS
        assert values[1] == kernel.LOSS
        assert values[2] == kernel.LOSS  # no move possible below min take

    def test_invalid_games_rejected(self):
        with pytest.raises(ValueError):
            kernel.SubtractionGame(5, takes=())
        with pytest.raises(ValueError):
            kernel.SubtractionGame(5, takes=(0, 1))
        with pytest.raises(ValueError):
            kernel.SubtractionGame(-1)

    def test_predecessors_inverse_of_successors(self):
        game = kernel.SubtractionGame(30, takes=(2, 5))
        for s in game.states():
            for succ in game.successors(s):
                assert s in game.predecessors(succ)

    @given(st.integers(min_value=1, max_value=64))
    def test_state_owner_in_range_and_spread(self, p):
        owners = [kernel.state_owner(s, p) for s in range(200)]
        assert all(0 <= o < p for o in owners)
        if p > 1:
            assert len(set(owners)) > 1  # not everything on one rank


# ----------------------------------------------------------------------
# Parallel correctness (real data: distributed retrograde analysis)
# ----------------------------------------------------------------------
REAL_CFG = AwariConfig(real_data=True, game_tokens=50, takes=(1, 2, 3))
REAL_SEED = 1


@pytest.mark.parametrize("variant", ["unoptimized", "optimized"])
@pytest.mark.parametrize("topo", [single_cluster(4),
                                  das_topology(clusters=2, cluster_size=2),
                                  das_topology(clusters=3, cluster_size=2)])
def test_distributed_solve_matches_serial(variant, topo):
    result = run_app("awari", variant, topo, config=REAL_CFG, seed=REAL_SEED)
    game = kernel.SubtractionGame(REAL_CFG.game_tokens, REAL_CFG.takes)
    expected = kernel.retrograde_solve(game)
    merged = {}
    for rank_values in result.results:
        merged.update(rank_values)
    assert merged == expected


@pytest.mark.parametrize("takes", [(1,), (2, 3), (1, 4, 5)])
def test_distributed_solve_various_games(takes):
    cfg = AwariConfig(real_data=True, game_tokens=36, takes=takes)
    topo = das_topology(clusters=2, cluster_size=3)
    result = run_app("awari", "optimized", topo, config=cfg, seed=2)
    game = kernel.SubtractionGame(cfg.game_tokens, takes)
    expected = kernel.retrograde_solve(game)
    merged = {}
    for rank_values in result.results:
        merged.update(rank_values)
    assert merged == expected


# ----------------------------------------------------------------------
# Communication structure (scaled mode)
# ----------------------------------------------------------------------
SCALED_CFG = AwariConfig(stages=2, states_per_stage=9600)


def test_update_flood_is_many_small_messages():
    topo = das_topology(clusters=4, cluster_size=8)
    result = run_app("awari", "unoptimized", topo, config=SCALED_CFG)
    stats = result.stats
    assert stats.inter.messages > 1000
    mean_size = stats.inter.bytes / stats.inter.messages
    assert mean_size < 1000  # tiny messages even after combining


def test_relay_reduces_wan_message_count():
    topo = das_topology(clusters=4, cluster_size=8)
    r_unopt = run_app("awari", "unoptimized", topo, config=SCALED_CFG)
    r_opt = run_app("awari", "optimized", topo, config=SCALED_CFG)
    assert r_opt.stats.inter.messages < r_unopt.stats.inter.messages / 3
    # The relay does not lose updates: the same logical payload crosses the
    # WAN, minus per-item framing and per-pair flush remainders (jumbo
    # batches amortize both), so bytes shrink somewhat but not wildly.
    assert 0.4 * r_unopt.stats.inter.bytes <= r_opt.stats.inter.bytes \
        <= r_unopt.stats.inter.bytes


def test_optimized_wins_on_high_latency():
    """Paper: message combining more than doubled performance for
    latencies up to 3.3 ms (given enough bandwidth)."""
    topo = das_topology(clusters=4, cluster_size=8,
                        wan_latency_ms=3.3, wan_bandwidth_mbyte_s=6.0)
    t_unopt = run_app("awari", "unoptimized", topo, config=SCALED_CFG).runtime
    t_opt = run_app("awari", "optimized", topo, config=SCALED_CFG).runtime
    assert t_opt < t_unopt


def test_awari_speedup_poor_even_on_single_cluster():
    """Table 1: Awari reaches only ~7.8 on 32 processors."""
    cfg = AwariConfig(stages=2, states_per_stage=21_600)
    t1 = run_app("awari", "unoptimized", single_cluster(1), config=cfg).runtime
    t32 = run_app("awari", "unoptimized", single_cluster(32), config=cfg).runtime
    speedup = t1 / t32
    assert 4 < speedup < 16  # far below linear


def test_updates_conserved():
    """Every update sent is applied exactly once (unopt vs opt agree)."""
    topo = das_topology(clusters=2, cluster_size=2)
    cfg = AwariConfig(stages=2, states_per_stage=200, sec_per_relay_item=0.0)
    r_u = run_app("awari", "unoptimized", topo, config=cfg)
    r_o = run_app("awari", "optimized", topo, config=cfg)
    applied_u = sum(s.compute_time for s in r_u.rank_stats)
    applied_o = sum(s.compute_time for s in r_o.rank_stats)
    # Identical synthetic workload -> identical eval/apply/pack compute.
    assert applied_u == pytest.approx(applied_o, rel=1e-9)
