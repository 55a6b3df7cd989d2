"""Tests for message combining, including property-based invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import das_topology, single_cluster
from repro.runtime import ITEM_HEADER_BYTES, Batch, CombiningBuffer, Machine


def test_batch_wire_size_includes_headers():
    batch = Batch()
    batch.add("a", 100)
    batch.add("b", 200)
    assert batch.wire_size == 300 + 2 * ITEM_HEADER_BYTES
    assert len(batch) == 2


def test_flush_on_count_threshold():
    machine = Machine(single_cluster(2))
    received = []

    def sender(ctx):
        buf = CombiningBuffer(ctx, "items", flush_count=3, flush_bytes=10**9)
        for i in range(7):
            yield from buf.add(1, i, 10)
        yield from buf.flush_all()
        return buf.batches_sent

    def receiver(ctx):
        while len(received) < 7:
            msg = yield ctx.recv("items")
            received.extend(msg.payload.items)

    machine.spawn(0, sender)
    machine.spawn(1, receiver)
    machine.run()
    assert received == list(range(7))
    assert machine.results()[0] == 3  # 3+3+1


def test_flush_on_bytes_threshold():
    machine = Machine(single_cluster(2))

    def sender(ctx):
        buf = CombiningBuffer(ctx, "items", flush_count=10**9, flush_bytes=250)
        for i in range(5):
            yield from buf.add(1, i, 100)  # flushes at item 3 (300 >= 250)...
        yield from buf.flush_all()
        return buf.batches_sent

    def receiver(ctx):
        got = 0
        while got < 5:
            msg = yield ctx.recv("items")
            got += len(msg.payload.items)

    machine.spawn(0, sender)
    machine.spawn(1, receiver)
    machine.run()
    assert machine.results()[0] == 2


def test_combining_reduces_wan_messages():
    topo = das_topology(clusters=2, cluster_size=1)

    def run(flush_count):
        machine = Machine(topo)

        def sender(ctx):
            buf = CombiningBuffer(ctx, "u", flush_count=flush_count)
            for i in range(64):
                yield from buf.add(1, i, 16)
            yield from buf.flush_all()

        def receiver(ctx):
            got = 0
            while got < 64:
                msg = yield ctx.recv("u")
                got += len(msg.payload.items)

        machine.spawn(0, sender)
        machine.spawn(1, receiver)
        machine.run()
        return machine.stats.inter.messages

    assert run(flush_count=1) == 64
    assert run(flush_count=64) == 1


def test_empty_flush_sends_nothing():
    machine = Machine(single_cluster(2))

    def sender(ctx):
        buf = CombiningBuffer(ctx, "t")
        yield from buf.flush(1)
        yield from buf.flush_all()
        yield ctx.compute(0)
        return buf.batches_sent

    def idle(ctx):
        yield ctx.compute(0)

    machine.spawn(0, sender)
    machine.spawn(1, idle)
    machine.run()
    assert machine.results()[0] == 0
    assert machine.stats.total_messages == 0


def test_invalid_thresholds_rejected():
    machine = Machine(single_cluster(1))

    def body(ctx):
        yield ctx.compute(0)

    machine.spawn(0, body)
    machine.run()
    ctx_like = machine  # CombiningBuffer only stores ctx; validation is eager
    with pytest.raises(ValueError):
        CombiningBuffer(ctx_like, "t", flush_count=0)
    with pytest.raises(ValueError):
        CombiningBuffer(ctx_like, "t", flush_bytes=0)


@settings(max_examples=25, deadline=None)
@given(
    items=st.lists(
        st.tuples(st.integers(min_value=1, max_value=3),   # destination rank
                  st.integers(min_value=1, max_value=500)),  # item size
        min_size=1, max_size=60,
    ),
    flush_count=st.integers(min_value=1, max_value=20),
    flush_bytes=st.integers(min_value=32, max_value=4096),
)
def test_combining_preserves_item_multiset(items, flush_count, flush_bytes):
    """Every item added arrives exactly once at its destination, in order."""
    machine = Machine(single_cluster(4))
    per_dst = {1: [], 2: [], 3: []}
    for idx, (dst, size) in enumerate(items):
        per_dst[dst].append((idx, size))
    received = {1: [], 2: [], 3: []}

    def sender(ctx):
        buf = CombiningBuffer(ctx, "pp", flush_count=flush_count,
                              flush_bytes=flush_bytes)
        for idx, (dst, size) in enumerate(items):
            yield from buf.add(dst, (idx, size), size)
        yield from buf.flush_all()

    def make_receiver(rank):
        def receiver(ctx):
            want = len(per_dst[rank])
            while len(received[rank]) < want:
                msg = yield ctx.recv("pp")
                received[rank].extend(msg.payload.items)
        return receiver

    machine.spawn(0, sender)
    for r in (1, 2, 3):
        machine.spawn(r, make_receiver(r))
    machine.run()
    assert received == per_dst


# ----------------------------------------------------------------------
# put(): the plain call underneath add()
# ----------------------------------------------------------------------
def _sent_batches(items, flush_count, flush_bytes, use_put):
    """Drive one sender over ``items`` = [(dst, size)...] through ``add``
    or through ``put`` + ``flush``; returns every batch as it was sent,
    in send order, plus the buffer's counters."""
    from repro.obs.bus import ProbeBus

    sent = []
    bus = ProbeBus()
    bus.subscribe("send", lambda ev: sent.append((ev.dst, ev.size)))
    machine = Machine(single_cluster(4), bus=bus)
    payloads = []

    def sender(ctx):
        buf = CombiningBuffer(ctx, "pp", flush_count=flush_count,
                              flush_bytes=flush_bytes)
        for idx, (dst, size) in enumerate(items):
            if use_put:
                due = buf.put(dst, (idx, size), size)
                assert due is (len(buf._pending[dst]) >= flush_count
                               or sum(buf._pending[dst].sizes) >= flush_bytes)
                if due:
                    yield from buf.flush(dst)
            else:
                yield from buf.add(dst, (idx, size), size)
        left = buf.pending_items()
        yield from buf.flush_all()
        assert buf.pending_items() == 0
        return buf.batches_sent, buf.items_sent, left

    def make_receiver(rank):
        def receiver(ctx):
            want = sum(1 for dst, _ in items if dst == rank)
            got = 0
            while got < want:
                msg = yield ctx.recv("pp")
                payloads.append((rank, msg.payload))
                got += len(msg.payload)
        return receiver

    machine.spawn(0, sender)
    for r in (1, 2, 3):
        machine.spawn(r, make_receiver(r))
    finish = machine.run()
    return sent, payloads, machine.results()[0], repr(finish)


@settings(max_examples=40, deadline=None)
@given(
    items=st.lists(
        st.tuples(st.integers(min_value=1, max_value=3),
                  st.integers(min_value=1, max_value=500)),
        min_size=1, max_size=80,
    ),
    flush_count=st.integers(min_value=1, max_value=20),
    flush_bytes=st.integers(min_value=32, max_value=4096),
)
def test_put_and_flush_send_exactly_what_add_sends(items, flush_count,
                                                   flush_bytes):
    via_add = _sent_batches(items, flush_count, flush_bytes, use_put=False)
    via_put = _sent_batches(items, flush_count, flush_bytes, use_put=True)
    assert via_put == via_add


@pytest.mark.parametrize("flush_count,flush_bytes,expected", [
    (3, 10**9, [3, 3, 1]),          # count threshold only
    (10**9, 250, [3, 3, 1]),        # byte threshold only: 300 >= 250
    (2, 250, [2, 2, 2, 1]),         # both set: count trips first
    (5, 150, [2, 2, 2, 1]),         # both set: bytes trip first
])
def test_put_thresholds(flush_count, flush_bytes, expected):
    sent, payloads, (batches, n_items, _), _ = _sent_batches(
        [(1, 100)] * 7, flush_count, flush_bytes, use_put=True)
    assert [len(batch) for _, batch in payloads] == expected
    assert batches == len(expected) and n_items == 7
    assert [size for _, size in sent] == [
        n * (100 + ITEM_HEADER_BYTES) for n in expected]


def test_flush_all_sends_in_ascending_destination_order():
    sent, _, (batches, _, left), _ = _sent_batches(
        [(3, 10), (1, 10), (2, 10), (3, 10)], 10**9, 10**9, use_put=True)
    assert left == 4 and batches == 3
    assert [dst for dst, _ in sent] == [1, 2, 3]


def test_batch_value_is_items_and_sizes_only():
    """The running byte total is bookkeeping: it must not show in what a
    batch compares or prints as."""
    grown = Batch()
    grown.add("a", 100)
    grown.add("b", 200)
    built = Batch(items=["a", "b"], sizes=[100, 200])
    assert grown == built
    assert repr(grown) == repr(built) \
        == "Batch(items=['a', 'b'], sizes=[100, 200])"
    assert grown.wire_size == built.wire_size == 300 + 2 * ITEM_HEADER_BYTES
    assert len(grown) == len(built) == 2
    assert grown.payload_bytes == built.payload_bytes == 300
    assert Batch() == Batch(items=[], sizes=[]) and Batch().wire_size == 0
    assert grown != Batch(items=["a", "b"], sizes=[100, 201])


def test_add_is_still_a_generator():
    import inspect

    from repro import runtime

    assert runtime.CombiningBuffer is CombiningBuffer
    assert inspect.isgeneratorfunction(CombiningBuffer.add)
    assert inspect.isgeneratorfunction(CombiningBuffer.flush)
    assert inspect.isgeneratorfunction(CombiningBuffer.flush_all)
    assert not inspect.isgeneratorfunction(CombiningBuffer.put)
    machine = Machine(single_cluster(2))

    def sender(ctx):
        buf = CombiningBuffer(ctx, "g", flush_count=2)
        step = buf.add(1, "x", 8)       # below the threshold: nothing to yield
        assert list(step) == [] and buf.pending_items() == 1
        yield from buf.add(1, "y", 8)   # reaches it: one send comes through
        assert buf.pending_items() == 0 and buf.batches_sent == 1

    def receiver(ctx):
        msg = yield ctx.recv("g")
        return msg.payload.items

    machine.spawn(0, sender)
    machine.spawn(1, receiver)
    machine.run()
    assert machine.results()[1] == ["x", "y"]
