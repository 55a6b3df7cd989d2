"""Micro-workloads for the layers a workload cannot time from outside.

The simulator's layers (engine, processes, context, router, links) run
interleaved inside ``machine.run()``; spans around ``run_app`` cannot
separate them.  Each probe drives one layer alone through its public
API and reports a median cost per operation, so a change in ``wall_s``
on ``fig3_sim`` can be laid against the layer that moved.  The probes are
independent of ``--workload`` and of ``--seed`` and run in every traced
run.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Any, Callable, Dict

from repro.apps import default_config, run_app
from repro.experiments import grids
from repro.experiments.cache import SimCache
from repro.network import das_topology
from repro.network.link import Link
from repro.network.linkspec import wan
from repro.network.message import Message
from repro.network.router import Router
from repro.runtime import Machine
from repro.serve.jobs import JobSpec
from repro.sim import Engine, Process, Sleep
from repro.whatif.record import REFERENCE_POINT, record_app

ROUNDS = 5
#: one app run per round at the recording reference point (0.95, 3.3)
APP_VARIANTS = (("water", "optimized"), ("barnes", "optimized"),
                ("tsp", "optimized"), ("asp", "optimized"),
                ("awari", "optimized"), ("fft", "unoptimized"))


def per_op(rounds: int, fn: Callable[[], int]) -> float:
    """Median over ``rounds`` of seconds per operation; ``fn`` returns
    how many operations it performed."""
    samples = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        ops = fn()
        samples.append((time.perf_counter() - t0) / ops)
    return statistics.median(samples)


def engine_events() -> int:
    engine = Engine()
    for i in range(50_000):
        engine.call_at(i * 1e-6, lambda: None)
    engine.run()
    return engine.events_processed


def process_switches() -> int:
    engine = Engine()

    def body():
        for _ in range(500):
            yield Sleep(1e-6)

    for i in range(20):
        Process(engine, body(), name=f"p{i}").start()
    engine.run()
    return engine.events_processed


def messages() -> int:
    machine = Machine(das_topology(clusters=2, cluster_size=2))

    def sender(ctx):
        for i in range(2_000):
            yield ctx.send(3, 256, "t", payload=i)

    def receiver(ctx):
        for _ in range(2_000):
            yield ctx.recv("t")

    def idle(ctx):
        yield ctx.compute(0)

    machine.spawn(0, sender)
    machine.spawn(3, receiver)
    machine.spawn(1, idle)
    machine.spawn(2, idle)
    machine.run()
    return machine.stats.total_messages


def routed_messages() -> int:
    """``Router.route`` on a bare engine: half intra-, half inter-cluster."""
    engine = Engine()
    router = Router(grids.multi_cluster(*REFERENCE_POINT))
    delivered = []
    for i in range(5_000):
        src = i % 8
        router.route(Message(src, (src + 1) % 8, "t", 256), i * 1e-5, engine,
                     delivered.append)
        router.route(Message(src, 8 + src, "t", 256), i * 1e-5, engine,
                     delivered.append)
    engine.run()
    return len(delivered)


def link_transfers() -> int:
    link = Link("probe", wan(3.3, 0.95))
    for i in range(50_000):
        link.transfer(i * 1e-4, 256)
    return link.stats.messages


def cache_costs(tmp: str) -> Dict[str, float]:
    cache = SimCache(os.path.join(tmp, "probe-cache"))
    keys = [f"probe-{i}" for i in range(200)]
    record = {"app": "water", "variant": "optimized", "scale": "bench",
              "seed": 0, "ranks": 32, "fingerprint": "0" * 16,
              "topology": "4x8 probe", "runtime": 1.234567}

    def store() -> int:
        for key in keys:
            cache.store(key, record)
        return len(keys)

    def lookup() -> int:
        hits = sum(cache.lookup(key) is not None for key in keys)
        if hits != len(keys):
            raise RuntimeError("probe cache lost entries")
        return hits

    return {"experiments.cache_store_us": per_op(ROUNDS, store) * 1e6,
            "experiments.cache_lookup_us": per_op(ROUNDS, lookup) * 1e6}


def spec_parses() -> int:
    """What the scheduler does per warm job before streaming: validate
    the spec and derive the baseline's and the 42 points' cache keys."""
    for _ in range(20):
        spec = JobSpec.from_json({"app": "water"})
        spec.cache_key(None, None)
        for bw, lat in spec.points():
            spec.cache_key(bw, lat)
    return 20


def app_runs(rounds: int) -> Dict[str, Any]:
    topology = grids.multi_cluster(*REFERENCE_POINT)
    out: Dict[str, Any] = {}
    for app, variant in APP_VARIANTS:
        config = default_config(app, "bench")
        events = []

        def one() -> int:
            result = run_app(app, variant, topology, config=config, seed=0)
            events.append(result.machine.engine.events_processed)
            return 1

        out[f"apps.{app}_run_ms"] = per_op(rounds, one) * 1e3
        if len(set(events)) != 1:
            raise RuntimeError(f"{app}: event count varies between runs: {events}")
        out[f"apps.{app}_events"] = events[0]
    return out


def record_overhead(rounds: int) -> float:
    """Recording wall over plain ``run_app`` wall, asp/optimized at the
    reference point: what the probe bus and DAG construction cost."""
    topology = grids.multi_cluster(*REFERENCE_POINT)
    config = default_config("asp", "bench")

    def plain() -> int:
        run_app("asp", "optimized", topology, config=config, seed=0)
        return 1

    def recorded() -> int:
        record_app("asp", "optimized", topology, seed=0, config=config)
        return 1

    return per_op(rounds, recorded) / per_op(rounds, plain)


def run_all(tmp: str, quick: bool) -> Dict[str, Any]:
    rounds = 1 if quick else ROUNDS
    out: Dict[str, Any] = {
        "sim.engine_ns_per_event": per_op(rounds, engine_events) * 1e9,
        "sim.process_ns_per_switch": per_op(rounds, process_switches) * 1e9,
        "runtime.ns_per_message": per_op(rounds, messages) * 1e9,
        "network.route_ns_per_message": per_op(rounds, routed_messages) * 1e9,
        "network.link_ns_per_transfer": per_op(rounds, link_transfers) * 1e9,
        "serve.spec_parse_us": per_op(rounds, spec_parses) * 1e6,
        "whatif.record_overhead_x": record_overhead(min(rounds, 3)),
    }
    out.update(cache_costs(tmp))
    out.update(app_runs(rounds))
    return out
