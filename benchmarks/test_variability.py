"""Further-work benchmark: sensitivity to WAN latency/bandwidth variation
(the study the paper defers to future research)."""

import pytest

from repro.experiments.variability import sweep


def test_latency_jitter_hurts_synchronous_patterns():
    """TSP (queue RPCs) and ASP (ordered rows) degrade under heavy
    latency jitter; asynchronous Awari barely cares."""
    def measure():
        return {app: sweep(app, "latency") for app in ("tsp", "asp", "awari")}
    curves = measure()
    for app in ("tsp", "asp"):
        fixed, heavy = curves[app][0], curves[app][-1]
        assert heavy < 0.8 * fixed, f"{app}: {curves[app]}"
    # Awari's stage exchange is one-way and bandwidth/overhead bound.
    awari_fixed, awari_heavy = curves["awari"][0], curves["awari"][-1]
    assert awari_heavy > 0.9 * awari_fixed


def test_bandwidth_variation_hurts_volume_bound_patterns():
    """ASP/Awari (volume-bound) collapse under bandwidth swings; TSP's
    tiny messages are unaffected."""
    def measure():
        return {app: sweep(app, "bandwidth") for app in ("tsp", "asp", "awari")}
    curves = measure()
    assert curves["tsp"][-1] > 0.9 * curves["tsp"][0]
    assert curves["asp"][-1] < 0.7 * curves["asp"][0]
    assert curves["awari"][-1] < 0.6 * curves["awari"][0]


def test_variation_is_monotone_for_asp():
    curve = sweep("asp", "bandwidth")
    assert all(a >= b for a, b in zip(curve, curve[1:]))
