"""Runtime sanitizer coverage: deadlock cycles, leaks, FIFO, monotonicity.

End-to-end cases drive real :class:`Machine` runs with ``sanitize=True``;
the invariant checks that need a broken transport (FIFO violations, time
regressions, lost messages) feed synthetic probe events straight into a
:class:`Sanitizer`, since the real engine never produces them.
"""

import pytest

from repro.lint import DeadlockReport, Sanitizer, SanitizerError
from repro.lint.sanitizer import blocked_frames
from repro.network.topology import single_cluster
from repro.obs.events import DeliverEvent, OpEvent, SendEvent
from repro.runtime.machine import DeadlockError, Machine


def make_machine(n, sanitize=True):
    return Machine(single_cluster(n), seed=0, sanitize=sanitize)


def spawn_all(machine, body):
    for rank in machine.topology.ranks():
        machine.spawn(rank, body)


def token_ring_then_deadlock(ctx):
    """One full token round (establishing sender history), then every rank
    issues a second recv that nobody serves: a cyclic wait over all ranks."""
    n = ctx.machine.topology.num_ranks
    nxt = (ctx.rank + 1) % n
    yield ctx.send(nxt, 64, ("tok", nxt))
    yield ctx.recv(("tok", ctx.rank))
    yield ctx.recv(("tok", ctx.rank))  # never sent again -> deadlock


# ----------------------------------------------------------------------
# deadlock cycles
# ----------------------------------------------------------------------
def test_two_rank_cycle_names_every_rank_and_channel():
    machine = make_machine(2)
    spawn_all(machine, token_ring_then_deadlock)
    with pytest.raises(DeadlockError) as err:
        machine.run()

    report = machine.sanitizer.deadlock_report
    assert isinstance(report, DeadlockReport)
    assert report.ranks_in_cycles() == {0, 1}
    assert report.tags_in_cycles() == {("tok", 0), ("tok", 1)}
    # The raised error carries the rendered cycle: ranks + channels.
    text = str(err.value)
    for needle in ("deadlock cycle", "rank0", "rank1",
                   "('tok', 0)", "('tok', 1)"):
        assert needle in text
    assert [f for f in machine.sanitizer.findings
            if f.rule == "deadlock-cycle"]


def test_cycle_report_is_attached_under_a_horizon():
    """A deadlock inside ``run(until=...)`` carries the same wait-for
    cycle as one inside an unbounded ``run()``."""
    machine = make_machine(2)
    spawn_all(machine, token_ring_then_deadlock)
    with pytest.raises(DeadlockError, match="deadlock cycle"):
        machine.run(until=10.0)

    report = machine.sanitizer.deadlock_report
    assert report.ranks_in_cycles() == {0, 1}
    assert report.tags_in_cycles() == {("tok", 0), ("tok", 1)}


def test_three_rank_cycle_names_every_rank_and_channel():
    machine = make_machine(3)
    spawn_all(machine, token_ring_then_deadlock)
    with pytest.raises(DeadlockError):
        machine.run()

    report = machine.sanitizer.deadlock_report
    assert report.ranks_in_cycles() == {0, 1, 2}
    assert report.tags_in_cycles() == {("tok", 0), ("tok", 1), ("tok", 2)}
    (cycle,) = report.cycles
    assert len(cycle) == 3


def test_blocked_backtraces_point_into_the_app_body():
    machine = make_machine(2)
    spawn_all(machine, token_ring_then_deadlock)
    with pytest.raises(DeadlockError):
        machine.run()

    for entry in machine.sanitizer.deadlock_report.blocked:
        assert entry["frames"], entry
        path, line, func = entry["frames"][-1]
        assert func == "token_ring_then_deadlock"
        assert path.endswith("test_sanitizer.py") and line > 0


def test_blocked_frames_of_finished_process_is_empty():
    machine = make_machine(1)

    def body(ctx):
        yield ctx.compute(1e-6)

    proc = machine.spawn(0, body)
    machine.run()
    assert blocked_frames(proc) == []


def test_healthy_run_has_no_deadlock_report():
    machine = make_machine(2)

    def body(ctx):
        n = ctx.machine.topology.num_ranks
        yield ctx.send((ctx.rank + 1) % n, 64, ("tok", (ctx.rank + 1) % n))
        yield ctx.recv(("tok", ctx.rank))

    spawn_all(machine, body)
    machine.run()
    assert machine.sanitizer.deadlock_report is None
    assert machine.sanitizer.findings == []


def test_deadlock_without_sanitizer_still_raises():
    machine = make_machine(2, sanitize=False)
    spawn_all(machine, token_ring_then_deadlock)
    with pytest.raises(DeadlockError) as err:
        machine.run()
    assert "deadlock cycle" not in str(err.value)


# ----------------------------------------------------------------------
# message conservation / leaks
# ----------------------------------------------------------------------
def test_in_flight_leak_when_run_stops_early():
    machine = make_machine(2)

    def body(ctx):
        if ctx.rank == 0:
            yield ctx.send(1, 4096, "orphan")
        yield ctx.compute(1e-9)  # both mains end before delivery lands

    spawn_all(machine, body)
    machine.run()
    leaks = machine.sanitizer.leaks()
    assert len(leaks) == 1
    assert "'orphan'" in leaks[0].message and "in flight" in leaks[0].message
    assert leaks[0].severity == "warning"


def test_mailbox_leak_when_message_is_never_received():
    machine = make_machine(2)

    def body(ctx):
        if ctx.rank == 0:
            yield ctx.send(1, 64, "orphan")
        yield ctx.compute(1.0)  # long enough for the delivery to land

    spawn_all(machine, body)
    machine.run()
    leaks = machine.sanitizer.leaks()
    assert len(leaks) == 1
    assert "delivered but never received" in leaks[0].message
    assert "rank 1" in leaks[0].message and "'orphan'" in leaks[0].message


def test_clean_exchange_reports_no_leak():
    machine = make_machine(2)

    def body(ctx):
        if ctx.rank == 0:
            yield ctx.send(1, 64, "data")
        else:
            yield ctx.recv("data")

    spawn_all(machine, body)
    machine.run()
    assert machine.sanitizer.leaks() == []
    assert machine.sanitizer.findings == []


def test_lost_in_flight_on_drained_run_raises():
    san = Sanitizer()
    san.on_send(SendEvent(0.0, 0, 1, 64, "t", False))

    class _NoMailboxes:
        endpoints = ()

    with pytest.raises(SanitizerError) as err:
        san.finish(_NoMailboxes(), drained=True)
    assert [f for f in err.value.findings if f.rule == "lost-in-flight"]


# ----------------------------------------------------------------------
# FIFO / causality / monotonicity (synthetic event streams)
# ----------------------------------------------------------------------
def test_fifo_violation_detected():
    san = Sanitizer()
    san.on_send(SendEvent(1.0, 0, 1, 64, "t", False))
    san.on_send(SendEvent(2.0, 0, 1, 64, "t", False))
    # The message sent at t=2.0 arrives first: latency says send was 2.0,
    # but the oldest outstanding send departed at 1.0.
    san.on_deliver(DeliverEvent(2.5, 0, 1, 64, "t", latency=0.5))
    assert [f for f in san.findings if f.rule == "fifo-violation"]


def test_in_order_delivery_is_clean():
    san = Sanitizer()
    san.on_send(SendEvent(1.0, 0, 1, 64, "t", False))
    san.on_send(SendEvent(2.0, 0, 1, 64, "t", False))
    san.on_deliver(DeliverEvent(1.5, 0, 1, 64, "t", latency=0.5))
    san.on_deliver(DeliverEvent(2.5, 0, 1, 64, "t", latency=0.5))
    assert san.findings == []


def test_distinct_channels_do_not_interfere():
    # Cross-channel overtaking is legal: FIFO holds per (src, dst, tag).
    san = Sanitizer()
    san.on_send(SendEvent(1.0, 0, 1, 64, "slow", False))
    san.on_send(SendEvent(2.0, 0, 1, 64, "fast", False))
    san.on_deliver(DeliverEvent(2.1, 0, 1, 64, "fast", latency=0.1))
    san.on_deliver(DeliverEvent(4.0, 0, 1, 64, "slow", latency=3.0))
    assert san.findings == []


def test_deliver_without_send_detected():
    san = Sanitizer()
    san.on_deliver(DeliverEvent(1.0, 0, 1, 64, "ghost", latency=0.5))
    assert [f for f in san.findings if f.rule == "deliver-without-send"]


def test_time_regression_detected():
    san = Sanitizer()
    san.on_op(OpEvent(5.0, "rank0", 0, False, "compute", duration=1.0))
    san.on_op(OpEvent(1.0, "rank0", 0, False, "compute", duration=1.0))
    assert [f for f in san.findings if f.rule == "time-regression"]


def test_monotonic_stream_is_clean():
    san = Sanitizer()
    for t in (0.0, 0.5, 0.5, 1.0):
        san.on_op(OpEvent(t, "rank0", 0, False, "compute", duration=0.1))
    assert san.findings == []


# ----------------------------------------------------------------------
# wiring: zero cost when off, event budget guard
# ----------------------------------------------------------------------
def test_sanitize_off_keeps_every_topic_cold():
    machine = make_machine(2, sanitize=False)
    assert machine.sanitizer is None
    bus = machine.bus
    assert not (bus.want_send or bus.want_deliver or bus.want_op)


def test_sanitize_on_flips_exactly_the_observed_topics():
    machine = make_machine(2, sanitize=True)
    bus = machine.bus
    assert bus.want_send and bus.want_deliver and bus.want_op


def test_event_budget_raises_timeout_not_hang():
    machine = make_machine(2)

    def chatter(ctx):
        peer = 1 - ctx.rank
        for i in range(10_000):
            yield ctx.send(peer, 64, ("ping", peer, i))
            yield ctx.recv(("ping", ctx.rank, i))

    spawn_all(machine, chatter)
    with pytest.raises(TimeoutError) as err:
        machine.run(max_events=500)
    assert "event budget" in str(err.value)
