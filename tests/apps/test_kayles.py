"""Kayles: a second real game for the retrograde substrate.

Correctness rests on three independent pillars: a forward memoized mex
oracle, minimax WIN/LOSS, and the Sprague-Grundy theorem (multi-heap
Grundy = XOR of single-heap Grundys) — a deep structural property the
implementation does not encode anywhere explicitly.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import run_app
from repro.apps.awari import AwariConfig, kernel
from repro.apps.awari.games import KaylesGame, forward_grundy, retrograde_grundy
from repro.network import das_topology


# ----------------------------------------------------------------------
# Enumeration & moves
# ----------------------------------------------------------------------
class TestKaylesStructure:
    def test_states_are_canonical_partitions(self):
        game = KaylesGame(6)
        for state in game.states():
            assert all(a >= b for a, b in zip(state, state[1:]))
            assert all(h > 0 for h in state)
            assert sum(state) <= 6

    def test_state_count_matches_partition_numbers(self):
        # Sum of partition counts p(0..6) = 1+1+2+3+5+7+11 = 30.
        assert len(KaylesGame(6).states()) == 30

    def test_moves_strictly_decrease_stage(self):
        game = KaylesGame(8)
        for s in game.states():
            for t in game.successors(s):
                assert game.stage(t) < game.stage(s)
                assert game.stage(s) - game.stage(t) in (1, 2)

    def test_single_row_moves(self):
        game = KaylesGame(4)
        # From one row of 4: take 1 -> (3), (2,1); take 2 -> (2), (1,1).
        assert set(game.successors((4,))) == {(3,), (2, 1), (2,), (1, 1)}

    def test_empty_state_is_terminal(self):
        game = KaylesGame(5)
        assert game.successors(()) == []

    def test_predecessors_inverse_of_successors(self):
        game = KaylesGame(7)
        for s in game.states():
            for t in game.successors(s):
                assert s in game.predecessors(t)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            KaylesGame(-1)


# ----------------------------------------------------------------------
# Grundy values
# ----------------------------------------------------------------------
class TestGrundy:
    def test_retrograde_matches_forward_oracle(self):
        game = KaylesGame(9)
        assert retrograde_grundy(game) == forward_grundy(game)

    def test_small_single_rows(self):
        g = retrograde_grundy(KaylesGame(5))
        assert g[()] == 0          # terminal: previous player won
        assert g[(1,)] == 1        # take the pin
        assert g[(2,)] == 2        # take one or both
        assert g[(3,)] == 3

    def test_sprague_grundy_theorem(self):
        """Grundy of a multi-row state equals the XOR of its rows' values
        — nowhere encoded in the implementation, so a true invariant."""
        game = KaylesGame(10)
        g = retrograde_grundy(game)
        for state in game.states():
            expected = functools.reduce(lambda a, b: a ^ b,
                                        (g[(row,)] for row in state), 0)
            assert g[state] == expected, state

    def test_win_iff_grundy_nonzero(self):
        game = KaylesGame(8)
        g = retrograde_grundy(game)
        values = kernel.retrograde_solve(game)
        for state in game.states():
            assert (values[state] == kernel.WIN) == (g[state] != 0), state

    @given(st.integers(min_value=0, max_value=11))
    @settings(max_examples=12, deadline=None)
    def test_retrograde_equals_minimax(self, n_max):
        game = KaylesGame(n_max)
        assert kernel.retrograde_solve(game) == kernel.minimax_solve(game)


# ----------------------------------------------------------------------
# Distributed retrograde analysis of Kayles
# ----------------------------------------------------------------------
@pytest.mark.parametrize("variant", ["unoptimized", "optimized"])
def test_distributed_kayles_matches_serial(variant):
    cfg = AwariConfig(real_data=True, game_factory=lambda: KaylesGame(10))
    topo = das_topology(clusters=2, cluster_size=3)
    result = run_app("awari", variant, topo, config=cfg, seed=8)
    expected = kernel.retrograde_solve(KaylesGame(10))
    merged = {}
    for values in result.results:
        merged.update(values)
    assert merged == expected


def test_tuple_state_owner_distribution():
    game = KaylesGame(12)
    owners = [kernel.state_owner(s, 8) for s in game.states()]
    assert all(0 <= o < 8 for o in owners)
    # Reasonably spread: every rank owns something at this size.
    assert len(set(owners)) == 8
