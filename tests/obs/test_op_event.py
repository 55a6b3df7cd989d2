"""``OpEvent`` is a ``NamedTuple``: same fields, order, defaults, and
still immutable — what every ``op`` subscriber relies on."""

import pytest

from repro.obs.events import OpEvent


def test_fields_order_and_defaults():
    assert OpEvent._fields == ("time", "proc", "rank", "daemon", "kind",
                               "dst", "src", "size", "tag", "duration",
                               "detail")
    event = OpEvent(1.5, "rank0", 0, False, "compute", duration=0.25)
    assert (event.dst, event.src, event.size, event.tag, event.detail) == \
        (None, -1, 0, None, None)
    assert event.duration == 0.25
    assert event == OpEvent(1.5, "rank0", 0, False, "compute",
                            duration=0.25)


def test_immutable():
    event = OpEvent(0.0, "rank0", 0, False, "send", dst=1, size=64)
    with pytest.raises(AttributeError):
        event.size = 128
