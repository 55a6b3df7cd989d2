"""Determinism: identical configurations produce identical simulations.

DESIGN.md section 6's guarantee — the engine breaks ties by insertion
sequence and every stochastic choice derives from the run seed — checked
end-to-end for every application and for the collectives.
"""

import pytest

from repro.apps import app_names, default_config, run_app
from repro.magpie import get_impl, invoke
from repro.network import das_topology
from repro.runtime import Machine

TOPO = das_topology(clusters=2, cluster_size=2,
                    wan_latency_ms=3.3, wan_bandwidth_mbyte_s=1.0)

SMALL_CONFIGS = {
    "water": {"molecules": 120, "iterations": 2},
    "barnes": {"bodies": 4096, "iterations": 1},
    "tsp": {"num_jobs": 64},
    "asp": {"n": 60},
    "awari": {"stages": 2, "states_per_stage": 400},
    "fft": {"points": 1 << 14},
}


def fingerprint(result):
    stats = result.stats
    return (
        round(result.runtime, 12),
        stats.total_messages,
        stats.total_bytes,
        stats.inter.messages,
        stats.inter.bytes,
        tuple(round(s.compute_time, 12) for s in result.rank_stats),
    )


def make_config(app):
    config = default_config(app, "bench")
    for key, value in SMALL_CONFIGS[app].items():
        setattr(config, key, value)
    return config


@pytest.mark.parametrize("app", sorted(app_names()))
@pytest.mark.parametrize("variant", ["unoptimized", "optimized"])
def test_app_runs_are_bit_identical(app, variant):
    config = make_config(app)
    a = run_app(app, variant, TOPO, config=config, seed=3)
    b = run_app(app, variant, TOPO, config=config, seed=3)
    assert fingerprint(a) == fingerprint(b)


@pytest.mark.parametrize("app", ["tsp", "awari"])
def test_different_workload_seeds_differ(app):
    """The stochastic workloads actually consume the run seed: it names
    the problem instance, so one config run at two seeds is two
    instances."""
    config = make_config(app)
    a = run_app(app, "unoptimized", TOPO, config=config, seed=1)
    b = run_app(app, "unoptimized", TOPO, config=config, seed=2)
    assert fingerprint(a) != fingerprint(b)


@pytest.mark.parametrize("impl", ["flat", "magpie"])
def test_collectives_deterministic(impl):
    def run_once():
        machine = Machine(TOPO, seed=5)
        coll = get_impl(impl)

        def body(ctx):
            out = yield from invoke(ctx, coll, "allreduce", "x", 256)
            yield from invoke(ctx, coll, "alltoall", "y", 128)
            return out

        for r in TOPO.ranks():
            machine.spawn(r, body)
        machine.run()
        return machine.runtime(), machine.stats.total_messages

    assert run_once() == run_once()
