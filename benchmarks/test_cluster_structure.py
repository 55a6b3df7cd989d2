"""Section 5.1 benchmark: more, smaller clusters outperform fewer, larger
ones on the fully-connected WAN (bisection bandwidth grows)."""

import pytest

from repro.experiments.clusters import measure


@pytest.mark.parametrize("app", ["water", "barnes"])
def test_more_smaller_clusters_win(app):
    """Holds for pairwise traffic patterns, whose volume spreads over the
    quadratically growing link count."""
    rows = measure(app, "optimized")
    by_shape = {shape: pct for shape, _, pct in rows}
    assert by_shape["8x4"] > by_shape["4x8"] > by_shape["2x16"], by_shape


def test_asp_broadcast_does_not_benefit():
    """ASP's row *broadcast* sends every row once over every WAN link, so
    its per-link volume is independent of the cluster count — more
    clusters cannot help it (each sender even pays more WAN copies).
    The paper's claim is about bisection-limited (pairwise) traffic."""
    rows = measure("asp", "optimized")
    by_shape = {shape: pct for shape, _, pct in rows}
    spread = max(by_shape.values()) - min(by_shape.values())
    assert spread < 10.0, by_shape


@pytest.mark.parametrize("shape", ["star", "ring"])
def test_effect_vanishes_on_non_full_wans(shape):
    """Section 5.1: "This effect will then diminish, and disappear in
    star, ring, or bus topologies" — bisection bandwidth no longer grows
    with the cluster count, and multi-hop forwarding eats the gains."""
    rows = measure("water", "optimized", "bench", 0, shape)
    by_shape = {s: pct for s, _, pct in rows}
    # No monotone improvement toward smaller clusters any more.
    assert not (by_shape["8x4"] > by_shape["4x8"] > by_shape["2x16"]), by_shape
    assert by_shape["8x4"] <= by_shape["2x16"] + 2.0
