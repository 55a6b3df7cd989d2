"""Unit tests for SimEvent and Mailbox."""

import pytest

from repro.sim import Mailbox, SimEvent


class TestSimEvent:
    def test_initially_untriggered(self):
        ev = SimEvent()
        assert not ev.triggered
        with pytest.raises(RuntimeError):
            _ = ev.value

    def test_succeed_carries_value(self):
        ev = SimEvent()
        ev.succeed(42)
        assert ev.triggered
        assert ev.value == 42

    def test_double_trigger_raises(self):
        ev = SimEvent()
        ev.succeed()
        with pytest.raises(RuntimeError):
            ev.succeed()

    def test_callbacks_fire_on_trigger(self):
        ev = SimEvent()
        got = []
        ev.add_callback(got.append)
        ev.add_callback(got.append)
        ev.succeed("x")
        assert got == ["x", "x"]

    def test_callback_after_trigger_fires_immediately(self):
        ev = SimEvent()
        ev.succeed(7)
        got = []
        ev.add_callback(got.append)
        assert got == [7]


class TestMailbox:
    def test_put_then_get(self):
        mb = Mailbox()
        mb.put("a")
        mb.put("b")
        assert len(mb) == 2
        assert mb.get_event().value == "a"
        assert mb.get_event().value == "b"

    def test_get_before_put_parks_receiver(self):
        mb = Mailbox()
        ev = mb.get_event()
        assert not ev.triggered
        assert mb.waiting_receivers == 1
        mb.put("x")
        assert ev.triggered and ev.value == "x"
        assert mb.waiting_receivers == 0

    def test_fifo_across_multiple_waiters(self):
        mb = Mailbox()
        ev1, ev2 = mb.get_event(), mb.get_event()
        mb.put(1)
        mb.put(2)
        assert ev1.value == 1
        assert ev2.value == 2

    def test_try_get(self):
        mb = Mailbox()
        assert mb.try_get() is None
        mb.put(9)
        assert mb.try_get() == 9
        assert mb.try_get() is None

    def test_peek_all_does_not_consume(self):
        mb = Mailbox()
        mb.put(1)
        mb.put(2)
        assert mb.peek_all() == [1, 2]
        assert len(mb) == 2

    def test_fresh_mailbox_is_empty_and_makes_queues_on_demand(self):
        """A mailbox that never queued anything holds no deque (a run keeps
        one per tag it ever saw); every reader must cope with that."""
        mb = Mailbox()
        assert len(mb) == 0 and mb.waiting_receivers == 0
        assert mb.peek_all() == [] and mb.try_get() is None
        assert mb._items is None and mb._waiters is None
        mb.put("parked")                    # nobody waits: items only
        assert len(mb) == 1 and mb._waiters is None
        assert mb.get_event().value == "parked"
        other = Mailbox()
        ev = other.get_event()              # nothing parked: waiters only
        assert other.waiting_receivers == 1 and other._items is None
        other.put("direct")                 # handed over, never queued
        assert ev.value == "direct" and other._items is None
        assert len(other) == 0 and other.waiting_receivers == 0
