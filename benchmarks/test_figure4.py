"""Figure 4 benchmark: inter-cluster communication time percentages."""

import pytest

from repro.experiments import grids
from repro.experiments.runner import Sweeper


@pytest.fixture(scope="module")
def sweeper():
    return Sweeper(scale="bench", seed=0)


def comm_pct(sweeper, app, bw, lat):
    variant = "optimized" if app != "fft" else "unoptimized"
    return sweeper.communication_time_pct(app, variant, bw, lat)


def test_fft_dominated_by_communication(sweeper):
    """'communication time for FFT is close to 100%' in both panels."""
    def measure():
        return (comm_pct(sweeper, "fft", 0.95, grids.FIGURE4_LATENCY_MS),
                comm_pct(sweeper, "fft", grids.FIGURE4_BANDWIDTH, 10.0))
    by_bw, by_lat = measure()
    assert by_bw > 85.0
    assert by_lat > 85.0


def test_awari_close_second(sweeper):
    def measure():
        return {app: comm_pct(sweeper, app, grids.FIGURE4_BANDWIDTH, 10.0)
                for app in ("fft", "awari", "water", "tsp")}
    v = measure()
    assert v["fft"] >= v["awari"] >= v["water"]
    assert v["awari"] > v["tsp"]


def test_latency_insensitivity_up_to_3ms(sweeper):
    """'Up to 3 ms Barnes-Hut, Water, and ASP are relatively insensitive
    to latency; their lines are nearly flat.'"""
    def measure():
        out = {}
        for app in ("barnes", "water", "asp"):
            out[app] = (comm_pct(sweeper, app, grids.FIGURE4_BANDWIDTH, 0.5),
                        comm_pct(sweeper, app, grids.FIGURE4_BANDWIDTH, 3.3))
        return out
    flat = measure()
    for app, (low, high) in flat.items():
        assert high - low < 15.0, f"{app}: {low} -> {high}"


def test_tsp_is_nearly_a_null_rpc(sweeper):
    """'TSP is almost completely insensitive to bandwidth; its
    work-stealing pattern comes quite close to the null-RPC.'"""
    def measure():
        return [comm_pct(sweeper, "tsp", bw, grids.FIGURE4_LATENCY_MS)
                for bw in (6.3, 0.95, 0.1)]
    curve = measure()
    assert max(curve) - min(curve) < 15.0
