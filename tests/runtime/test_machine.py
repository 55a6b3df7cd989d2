"""Unit tests for Machine and run_spmd: spawning, transport, CPU clocks,
deadlock, and the run lifetime (a finished run leaves nothing for the
collector)."""

import gc
from functools import partial

import pytest

from repro.apps import app_names, run_app
from repro.apps.base import VARIANTS
from repro.experiments import grids
from repro.experiments.algselect import _time as algselect_time
from repro.experiments.algselect import bcast_candidates
from repro.experiments.magpie_bench import time_collective
from repro.faults import FaultPlan, GatewayCrash, Outage, PacketLoss
from repro.network import das_topology, single_cluster
from repro.runtime import DeadlockError, Machine, run_spmd
from repro.runtime.machine import CpuClock
from repro.whatif.record import record_app


class TestCpuClock:
    def test_serializes_reservations(self):
        cpu = CpuClock()
        assert cpu.reserve(0.0, 1.0) == 1.0
        assert cpu.reserve(0.5, 1.0) == 2.0  # waits for first reservation
        assert cpu.reserve(5.0, 1.0) == 6.0  # idle gap is skipped
        assert cpu.busy_time == pytest.approx(3.0)


def test_simple_send_recv_between_ranks():
    machine = Machine(single_cluster(2))
    log = []

    def sender(ctx):
        yield ctx.send(1, 1000, "data", payload="hello")

    def receiver(ctx):
        msg = yield ctx.recv("data")
        log.append((ctx.now, msg.payload, msg.src))

    machine.spawn(0, sender)
    machine.spawn(1, receiver)
    machine.run()
    assert len(log) == 1
    t, payload, src = log[0]
    assert payload == "hello" and src == 0
    assert t > 0.0


def test_recv_before_send_blocks_until_delivery():
    machine = Machine(single_cluster(2))
    times = {}

    def sender(ctx):
        yield ctx.compute(1.0)
        yield ctx.send(1, 64, "late")

    def receiver(ctx):
        yield ctx.recv("late")
        times["recv"] = ctx.now

    machine.spawn(0, sender)
    machine.spawn(1, receiver)
    machine.run()
    assert times["recv"] > 1.0
    assert machine.rank_stats[1].recv_blocked_time > 0.9


def test_deadlock_detection():
    machine = Machine(single_cluster(2))

    def stuck(ctx):
        yield ctx.recv("never")

    machine.spawn(0, stuck)
    with pytest.raises(DeadlockError, match="never"):
        machine.run()


@pytest.mark.parametrize("bound", [{}, {"max_events": 1000}, {"until": 10.0}],
                         ids=["no-bound", "max_events", "until"])
def test_deadlock_is_diagnosed_under_every_call_form(bound):
    """Regression: a drained queue with blocked ranks is a deadlock whatever
    horizon or budget ``run`` was given — ``until=`` used to report it as
    ``TimeoutError`` and drop the blocked-tag map."""
    machine = Machine(single_cluster(2))

    def stuck(ctx):
        yield ctx.recv("never")

    machine.spawn(0, stuck)
    machine.spawn(1, stuck)
    with pytest.raises(DeadlockError, match="never") as err:
        machine.run(**bound)
    assert "rank0" in str(err.value) and "rank1" in str(err.value)
    assert machine.engine.pending == 0


def test_timeout_detection():
    machine = Machine(single_cluster(2))

    def slow(ctx):
        yield ctx.compute(100.0)

    machine.spawn(0, slow)
    with pytest.raises(TimeoutError, match="until=1.0"):
        machine.run(until=1.0)
    assert machine.engine.pending > 0   # what tells it from a deadlock


def test_daemon_does_not_keep_run_alive():
    machine = Machine(single_cluster(2))

    def server(ctx):
        while True:
            msg = yield ctx.recv("ping")
            yield ctx.reply(msg, payload="pong")

    def client(ctx):
        answer = yield from ctx.rpc(1, "ping")
        return answer

    machine.spawn(1, server, name="rank1.server", daemon=True)
    machine.spawn(0, client)
    machine.run()  # must terminate even though the server loops forever
    assert machine.results() == ["pong"]


def test_runtime_is_slowest_rank():
    machine = Machine(single_cluster(3))

    def body_factory(duration):
        def body(ctx):
            yield ctx.compute(duration)
        return body

    for rank, dur in enumerate([1.0, 3.0, 2.0]):
        machine.spawn(rank, body_factory(dur))
    machine.run()
    assert machine.runtime() == pytest.approx(3.0)


def test_cross_cluster_message_counts_in_stats():
    machine = Machine(das_topology(clusters=2, cluster_size=2))

    def sender(ctx):
        if ctx.rank == 0:
            yield ctx.send(2, 5000, "x")
        elif ctx.rank == 2:
            yield ctx.recv("x")
        else:
            yield ctx.compute(0.0)

    for r in range(4):
        machine.spawn(r, sender)
    machine.run()
    assert machine.stats.inter.messages == 1
    assert machine.stats.inter.bytes == 5000


def test_services_share_rank_cpu():
    """A service's CPU reservations delay the main process on that rank."""
    machine = Machine(single_cluster(2))
    finish = {}

    def busy_service(ctx):
        yield ctx.compute(2.0)

    def main0(ctx):
        ctx.spawn_service(busy_service, name="busy")
        yield ctx.compute(0.0)  # let the service start
        yield ctx.compute(1.0)
        finish["main"] = ctx.now

    def idle(ctx):
        yield ctx.compute(0.0)

    machine.spawn(0, main0)
    machine.spawn(1, idle)
    machine.run()
    # The service reserved 2.0 s of the rank-0 CPU first, so the main
    # process's 1.0 s of work completes at ~3.0 s.
    assert finish["main"] == pytest.approx(3.0, abs=1e-6)


class TestRunHelpers:
    def test_run_spmd_collects_results_in_rank_order(self):
        def main(ctx):
            yield ctx.compute(1e-6 * (ctx.rank + 1))
            return ctx.rank * 2

        result = run_spmd(single_cluster(5), main)
        assert result.results == [0, 2, 4, 6, 8]
        assert result.traffic_summary()["inter_messages"] == 0

    def test_run_spmd_until_raises_on_overrun(self):
        def main(ctx):
            yield ctx.compute(10.0)

        with pytest.raises(TimeoutError):
            run_spmd(single_cluster(2), main, until=0.5)


# ----------------------------------------------------------------------
# Run lifetime: run_spmd seals the machine, so dropping a result frees
# the whole run by reference counting, with no collection needed.
# ----------------------------------------------------------------------
#: Figure 3's middle grid point (0.95 MByte/s, 10 ms)
MID_POINT = grids.multi_cluster(0.95, 10.0)


def run_summary(result):
    return (result.runtime, result.machine.engine.events_processed,
            result.results)


def left_for_the_collector(run, summarize):
    """``summarize(run())`` with the collector off, and the number of
    objects a collection finds unreachable once the result is dropped."""
    gc.collect()
    gc.disable()
    try:
        result = run()
        summary = summarize(result)
        del result
        return summary, gc.collect()
    finally:
        gc.enable()


def assert_frees_itself(run, summarize):
    want = summarize(run())      # collector on; pays lazy imports first
    got, garbage = left_for_the_collector(run, summarize)
    assert garbage == 0
    assert got == want


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("app", app_names())
def test_a_finished_run_frees_itself(app, variant):
    assert_frees_itself(partial(run_app, app, variant, MID_POINT),
                        run_summary)


def test_a_recording_frees_itself():
    assert_frees_itself(partial(record_app, "asp", "unoptimized"),
                        lambda rec: (rec.runtime, len(rec.dag.procs)))


def test_a_fault_plan_run_frees_itself_and_stays_readable():
    """Loss, an outage and a gateway crash under the reliable transport:
    the transport's and the injector's counters outlive the seal."""
    plan = FaultPlan(loss=(PacketLoss(probability=0.05),),
                     outages=(Outage(start=0.01, duration=0.05),),
                     crashes=(GatewayCrash(1, start=0.02, duration=0.05),))

    def summarize(result):
        machine = result.machine
        return run_summary(result) + (
            machine.transport.buffered(), machine.transport.unacked(),
            machine.fault_injector.summary())

    assert_frees_itself(partial(run_app, "asp", "unoptimized", MID_POINT,
                                faults=plan), summarize)


def test_an_algorithm_selection_timing_frees_itself():
    """``algselect._time`` builds its own machine: sealed, it leaves the
    collector nothing, and the time it reports is unchanged."""
    topo = grids.multi_cluster(0.95, 10.0)
    candidate = bcast_candidates(1024)["MagPIe"]
    assert_frees_itself(partial(algselect_time, topo, candidate),
                        lambda runtime: runtime)


def test_a_magpie_collective_timing_frees_itself():
    """As above, for ``magpie_bench.time_collective``."""
    topo = grids.multi_cluster(0.95, 10.0)
    assert_frees_itself(partial(time_collective, "magpie", "allreduce", topo),
                        lambda runtime: runtime)
