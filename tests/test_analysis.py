"""The simulator versus closed-form first-order models.

Two independent calculations of the same runtime must coincide (to first
order) wherever the closed form's assumptions hold — the repository's
sanity anchor for all simulated numbers.
"""

import pytest

from repro.apps import run_app
from repro.apps.asp import AspConfig
from repro.apps.fft import FftConfig
from repro.apps.tsp import TspConfig
from repro.apps.water import WaterConfig
from repro.network import das_topology
from repro.runtime import Machine

from .analysis import (
    gateway_bound,
    predict_asp_unoptimized,
    predict_fft,
    predict_tsp_central,
    predict_water_optimized_floor,
    remote_fraction,
    wan_rtt,
)


def test_remote_fraction():
    assert remote_fraction(das_topology(clusters=4, cluster_size=8)) == 0.75
    assert remote_fraction(das_topology(clusters=2, cluster_size=8)) == 0.5


def test_wan_rtt_matches_simulated_ping():
    topo = das_topology(clusters=2, cluster_size=1,
                        wan_latency_ms=10.0, wan_bandwidth_mbyte_s=1.0)
    machine = Machine(topo)

    def client(ctx):
        t0 = ctx.now
        yield from ctx.rpc(1, "ping")
        return ctx.now - t0

    def server(ctx):
        while True:
            msg = yield ctx.recv("ping")
            yield ctx.reply(msg)

    machine.spawn(1, server, name="rank1.s", daemon=True)
    machine.spawn(0, client)
    machine.run()
    simulated = machine.results()[0]
    assert simulated == pytest.approx(wan_rtt(topo), rel=0.10)


@pytest.mark.parametrize("latency_ms", [3.3, 30.0])
def test_asp_unoptimized_matches_model(latency_ms):
    """Latency-dominated ASP: the fixed sequencer's round trips are the
    whole story; model and simulator must agree within ~20%."""
    topo = das_topology(clusters=4, cluster_size=8,
                        wan_latency_ms=latency_ms, wan_bandwidth_mbyte_s=6.0)
    cfg = AspConfig(n=160)
    simulated = run_app("asp", "unoptimized", topo, config=cfg).runtime
    predicted = predict_asp_unoptimized(cfg.n, cfg.sec_per_cell,
                                        cfg.row_bytes, topo)
    assert simulated == pytest.approx(predicted, rel=0.20)


@pytest.mark.parametrize("latency_ms", [10.0, 100.0])
def test_tsp_central_matches_model(latency_ms):
    topo = das_topology(clusters=4, cluster_size=8,
                        wan_latency_ms=latency_ms, wan_bandwidth_mbyte_s=6.0)
    cfg = TspConfig(num_jobs=512, job_sigma=0.1)  # near-uniform jobs
    simulated = run_app("tsp", "unoptimized", topo, config=cfg).runtime
    predicted = predict_tsp_central(512, cfg.mean_job_sec, topo)
    assert simulated == pytest.approx(predicted, rel=0.25)


@pytest.mark.parametrize("bandwidth", [0.3, 0.95])
def test_fft_matches_model_when_bandwidth_bound(bandwidth):
    topo = das_topology(clusters=4, cluster_size=8,
                        wan_latency_ms=0.5, wan_bandwidth_mbyte_s=bandwidth)
    cfg = FftConfig(points=1 << 20)
    simulated = run_app("fft", "unoptimized", topo, config=cfg).runtime
    predicted = predict_fft(cfg.points, cfg.sec_per_point_stage,
                            cfg.element_bytes, topo)
    assert simulated == pytest.approx(predicted, rel=0.25)


def test_water_floor_is_a_true_lower_bound():
    topo = das_topology(clusters=4, cluster_size=8,
                        wan_latency_ms=3.3, wan_bandwidth_mbyte_s=0.3)
    cfg = WaterConfig(molecules=1500, iterations=2)
    simulated = run_app("water", "optimized", topo, config=cfg).runtime
    floor = predict_water_optimized_floor(cfg.molecules, cfg.iterations,
                                          cfg.sec_per_pair, cfg.pos_bytes, topo)
    assert simulated >= floor * 0.95
    assert simulated < floor * 3.0  # and within sight of it


def test_awari_unopt_is_gateway_bound():
    """The plateau in the Awari panel equals the gateway-CPU bound."""
    topo = das_topology(clusters=4, cluster_size=8,
                        wan_latency_ms=0.5, wan_bandwidth_mbyte_s=6.3)
    from repro.apps import default_config

    cfg = default_config("awari", "bench")
    result = run_app("awari", "unoptimized", topo, config=cfg)
    # Each WAN message passes two gateway CPUs; traffic splits over 4.
    passes_per_gateway = 2 * result.stats.inter.messages / 4
    bound = gateway_bound(int(passes_per_gateway), topo)
    assert result.runtime >= 0.9 * bound
    assert result.runtime < 2.0 * bound
