"""Unit tests for the discrete-event engine."""

import math

import pytest

from repro.sim import Engine, SimulationError


def test_starts_at_time_zero():
    eng = Engine()
    assert eng.now == 0.0
    assert eng.pending == 0


def test_call_at_runs_in_time_order():
    eng = Engine()
    fired = []
    eng.call_at(2.0, lambda: fired.append("b"))
    eng.call_at(1.0, lambda: fired.append("a"))
    eng.call_at(3.0, lambda: fired.append("c"))
    eng.run()
    assert fired == ["a", "b", "c"]
    assert eng.now == 3.0


def test_ties_break_by_insertion_order():
    eng = Engine()
    fired = []
    for label in "abcde":
        eng.call_at(1.0, lambda label=label: fired.append(label))
    eng.run()
    assert fired == list("abcde")


def test_call_after_is_relative():
    eng = Engine()
    times = []
    eng.call_at(5.0, lambda: eng.call_after(2.5, lambda: times.append(eng.now)))
    eng.run()
    assert times == [7.5]


def test_scheduling_in_the_past_raises():
    eng = Engine()
    eng.call_at(1.0, lambda: None)
    eng.run()
    with pytest.raises(SimulationError):
        eng.call_at(0.5, lambda: None)


def test_negative_delay_raises():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.call_after(-1.0, lambda: None)


def test_nan_time_raises():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.call_at(math.nan, lambda: None)


def test_run_until_is_inclusive_and_stops_clock():
    eng = Engine()
    fired = []
    eng.call_at(1.0, lambda: fired.append(1))
    eng.call_at(2.0, lambda: fired.append(2))
    eng.call_at(3.0, lambda: fired.append(3))
    eng.run(until=2.0)
    assert fired == [1, 2]
    assert eng.now == 2.0
    assert eng.pending == 1


def test_run_max_events():
    eng = Engine()
    fired = []
    for i in range(10):
        eng.call_at(float(i), lambda i=i: fired.append(i))
    eng.run(max_events=4)
    assert fired == [0, 1, 2, 3]


def test_run_until_with_max_events_stops_at_first_limit():
    # Case 1: the event budget runs out before the horizon.
    eng = Engine()
    fired = []
    for i in range(10):
        eng.call_at(float(i), lambda i=i: fired.append(i))
    eng.run(until=8.0, max_events=3)
    assert fired == [0, 1, 2]
    assert eng.now == 2.0
    # Case 2: resume the same engine; now the horizon binds first.
    eng.run(until=5.0, max_events=100)
    assert fired == [0, 1, 2, 3, 4, 5]
    assert eng.now == 5.0
    assert eng.pending == 4


def test_run_max_events_then_run_to_completion():
    eng = Engine()
    fired = []
    for i in range(5):
        eng.call_at(float(i), lambda i=i: fired.append(i))
    eng.run(max_events=2)
    eng.run()
    assert fired == [0, 1, 2, 3, 4]
    assert eng.events_processed == 5


def test_step_returns_false_when_idle():
    eng = Engine()
    assert eng.step() is False


def test_events_cascade():
    """Events scheduled from inside events run at their proper times."""
    eng = Engine()
    trace = []

    def first():
        trace.append(("first", eng.now))
        eng.call_after(1.0, second)

    def second():
        trace.append(("second", eng.now))

    eng.call_at(1.0, first)
    eng.run()
    assert trace == [("first", 1.0), ("second", 2.0)]


def test_peek_reports_next_event_time():
    eng = Engine()
    assert eng.peek() == math.inf
    eng.call_at(4.2, lambda: None)
    assert eng.peek() == 4.2


def test_events_processed_counter():
    eng = Engine()
    for i in range(5):
        eng.call_at(float(i), lambda: None)
    eng.run()
    assert eng.events_processed == 5


def test_zero_delay_event_runs_at_current_time():
    eng = Engine()
    times = []
    eng.call_at(3.0, lambda: eng.call_after(0.0, lambda: times.append(eng.now)))
    eng.run()
    assert times == [3.0]


def test_run_until_advances_clock_when_queue_drains_early():
    """Regression: ``run(until=...)`` must report the horizon, not the last
    event time, when the queue empties before the horizon is reached."""
    eng = Engine()
    eng.call_at(1.0, lambda: None)
    eng.run(until=5.0)
    assert eng.now == 5.0
    assert eng.pending == 0
    # Empty-queue run with a horizon also advances the clock.
    eng.run(until=9.0)
    assert eng.now == 9.0
    # ...but never backwards.
    eng.run(until=2.0)
    assert eng.now == 9.0


def test_run_until_in_the_past_leaves_the_clock_alone():
    """Regression: ``run(until=t)`` with ``t < now`` rewound the clock when
    events were still pending (the drained branch already guarded), after
    which ``call_at`` accepted times before events that had already run."""
    eng = Engine()
    fired = []
    eng.call_at(5.0, lambda: fired.append(5))
    eng.call_at(9.0, lambda: fired.append(9))
    eng.run(until=6.0)
    assert (fired, eng.now, eng.pending) == ([5], 6.0, 1)
    # Pending branch: the 9.0 event is still queued.
    eng.run(until=3.0)
    assert (fired, eng.now, eng.pending) == ([5], 6.0, 1)
    with pytest.raises(SimulationError):
        eng.call_at(4.0, lambda: None)
    # Drained branch.
    eng.run()
    assert (fired, eng.now, eng.pending) == ([5, 9], 9.0, 0)
    eng.run(until=3.0)
    assert eng.now == 9.0


def test_call_soon_runs_at_current_time_in_order():
    eng = Engine()
    trace = []

    def seed():
        eng.call_soon(lambda: trace.append(("soon1", eng.now)))
        eng.call_soon(lambda: trace.append(("soon2", eng.now)))

    eng.call_at(2.0, seed)
    eng.run()
    assert trace == [("soon1", 2.0), ("soon2", 2.0)]


def test_ready_queue_and_heap_interleave_by_sequence_at_equal_times():
    """The zero-delay ready queue and the timed heap must merge into one
    global (time, sequence) order: entries scheduled at the *same* timestamp
    fire in scheduling order regardless of which structure holds them."""
    eng = Engine()
    fired = []

    def seed():
        # Alternate structures at the identical timestamp eng.now == 1.0:
        # heap, ready, heap, ready — insertion order must win.
        eng.call_at(1.0, lambda: fired.append("heap-a"))
        eng.call_soon(lambda: fired.append("ready-b"))
        eng.call_after(0.0, lambda: fired.append("ready-c"))
        eng.call_at(1.0, lambda: fired.append("heap-d"))
        eng.call_soon(lambda: fired.append("ready-e"))

    eng.call_at(1.0, seed)
    eng.run()
    assert fired == ["heap-a", "ready-b", "ready-c", "heap-d", "ready-e"]


def test_batched_backlog_interleaves_with_mid_run_events():
    """A large backlog scheduled before ``run()`` must interleave
    correctly with events scheduled while the run is underway."""
    eng = Engine()
    fired = []
    n = 100

    def make(i):
        def cb():
            fired.append(("pre", i))
            if i % 10 == 0:
                # Same-time follow-up goes through the ready queue...
                eng.call_soon(lambda: fired.append(("soon", i)))
                # ...and a timed follow-up lands between backlog entries.
                eng.call_at(eng.now + 0.5, lambda: fired.append(("mid", i)))
        return cb

    for i in range(n):
        eng.call_at(float(i), make(i))
    eng.run()

    expect = []
    for i in range(n):
        expect.append(("pre", i))
        if i % 10 == 0:
            expect.append(("soon", i))
        if i >= 1 and (i - 1) % 10 == 0:
            # fired at (i-1) + 0.5, i.e. just before ("pre", i)
            expect.insert(len(expect) - 1, ("mid", i - 1))
    # The final mid event (from i=90... none: 90+0.5 < 91) is covered above;
    # the last backlog entry is 99 so every mid fires before some pre.
    assert fired == expect


def test_stop_halts_run_and_preserves_pending_events():
    eng = Engine()
    fired = []
    eng.call_at(1.0, lambda: fired.append(1))
    eng.call_at(2.0, lambda: (fired.append(2), eng.stop()))
    eng.call_at(3.0, lambda: fired.append(3))
    eng.run()
    assert fired == [1, 2]
    assert eng.now == 2.0
    assert eng.pending == 1
    # A fresh run picks the remaining events back up.
    eng.run()
    assert fired == [1, 2, 3]
