"""Unit tests for the Context API: send/recv/rpc semantics and accounting."""

import pytest

from repro.network import das_topology, single_cluster
from repro.runtime import CONTROL_BYTES, Machine


def run_two(body0, body1, topo=None):
    machine = Machine(topo or single_cluster(2))
    machine.spawn(0, body0)
    machine.spawn(1, body1)
    machine.run()
    return machine


def test_send_is_asynchronous():
    """The sender resumes after the host overhead, not after delivery."""
    topo = das_topology(clusters=2, cluster_size=1,
                        wan_latency_ms=100.0, wan_bandwidth_mbyte_s=1.0)
    resumed_at = {}

    def sender(ctx):
        yield ctx.send(1, 1_000_000, "big")
        resumed_at["t"] = ctx.now

    def receiver(ctx):
        yield ctx.recv("big")
        resumed_at["recv"] = ctx.now

    run_two(sender, receiver, topo)
    assert resumed_at["t"] < 0.001          # just the send overhead
    assert resumed_at["recv"] > 1.0         # ~1 s serialization + 100 ms


def test_compute_charges_cpu_and_stats():
    machine = Machine(single_cluster(1))

    def body(ctx):
        yield ctx.compute(2.5)

    machine.spawn(0, body)
    machine.run()
    assert machine.rank_stats[0].compute_time == pytest.approx(2.5)
    assert machine.cpus[0].busy_time == pytest.approx(2.5)


def test_negative_compute_rejected():
    machine = Machine(single_cluster(1))

    def body(ctx):
        yield ctx.compute(-1.0)

    machine.spawn(0, body)
    with pytest.raises(ValueError):
        machine.run()


def test_messages_are_fifo_per_sender_receiver_pair():
    order = []

    def sender(ctx):
        for i in range(5):
            yield ctx.send(1, 100, "seq", payload=i)

    def receiver(ctx):
        for _ in range(5):
            msg = yield ctx.recv("seq")
            order.append(msg.payload)

    run_two(sender, receiver)
    assert order == [0, 1, 2, 3, 4]


def test_tags_demultiplex():
    got = {}

    def sender(ctx):
        yield ctx.send(1, 64, "b", payload="B")
        yield ctx.send(1, 64, "a", payload="A")

    def receiver(ctx):
        msg_a = yield ctx.recv("a")
        msg_b = yield ctx.recv("b")
        got["a"], got["b"] = msg_a.payload, msg_b.payload

    run_two(sender, receiver)
    assert got == {"a": "A", "b": "B"}


def test_recv_nowait():
    result = {}

    def sender(ctx):
        yield ctx.compute(1.0)
        yield ctx.send(1, 64, "x", payload="later")

    def receiver(ctx):
        early = yield ctx.recv_nowait("x")
        yield ctx.compute(2.0)
        late = yield ctx.recv_nowait("x")
        result["early"], result["late"] = early, late and late.payload

    run_two(sender, receiver)
    assert result["early"] is None
    assert result["late"] == "later"


def test_rpc_round_trip():
    def server(ctx):
        msg = yield ctx.recv("query")
        assert msg.payload.body == {"q": 1}
        yield ctx.reply(msg, size=128, payload={"answer": 42})

    def client(ctx):
        response = yield from ctx.rpc(0, "query", payload={"q": 1})
        return response

    machine = Machine(single_cluster(2))
    machine.spawn(0, server)
    machine.spawn(1, client)
    machine.run()
    assert machine.results()[1] == {"answer": 42}


def test_concurrent_rpcs_do_not_cross_talk():
    def server(ctx):
        for _ in range(2):
            msg = yield ctx.recv("query")
            yield ctx.reply(msg, payload=("echo", msg.payload.body))

    def client(ctx):
        r1 = yield from ctx.rpc(0, "query", payload=ctx.rank * 10)
        r2 = yield from ctx.rpc(0, "query", payload=ctx.rank * 10 + 1)
        return (r1, r2)

    machine = Machine(single_cluster(3))
    machine.spawn(0, server)

    def server2(ctx):
        for _ in range(2):
            msg = yield ctx.recv("query2")
            yield ctx.reply(msg, payload=("echo", msg.payload.body))

    machine.spawn(1, client)

    def client2(ctx):
        r1 = yield from ctx.rpc(0, "query", payload=ctx.rank * 10)
        r2 = yield from ctx.rpc(0, "query", payload=ctx.rank * 10 + 1)
        return (r1, r2)

    # rank 2 served by same server? Server only answers 2 requests; spawn a
    # second server round for rank 2's two requests.
    machine.spawn(0, server2, name="rank0.s2", daemon=True)
    machine.run()
    assert machine.results()[1] == (("echo", 10), ("echo", 11))


def test_reply_to_non_rpc_message_raises():
    def sender(ctx):
        yield ctx.send(1, 64, "plain", payload="not an envelope")

    def receiver(ctx):
        msg = yield ctx.recv("plain")
        with pytest.raises(TypeError):
            ctx.reply(msg)

    run_two(sender, receiver)


def test_wan_overheads_exceed_local():
    topo = das_topology(clusters=2, cluster_size=2)
    machine = Machine(topo)

    def body(ctx):
        if ctx.rank == 0:
            yield ctx.send(1, 64, "local")
            yield ctx.send(2, 64, "remote")
        elif ctx.rank == 1:
            yield ctx.recv("local")
        elif ctx.rank == 2:
            yield ctx.recv("remote")
        else:
            yield ctx.compute(0)

    for r in range(4):
        machine.spawn(r, body)
    machine.run()
    st = machine.rank_stats[0]
    expected = topo.local.send_overhead + topo.wide.send_overhead
    assert st.send_overhead_time == pytest.approx(expected)


def test_context_properties():
    topo = das_topology(clusters=2, cluster_size=4)
    machine = Machine(topo)
    seen = {}

    def body(ctx):
        seen["cluster"] = ctx.cluster
        seen["num_ranks"] = ctx.num_ranks
        seen["local"] = ctx.is_local(5)
        yield ctx.compute(0)

    machine.spawn(6, body)
    machine.run()
    assert seen == {"cluster": 1, "num_ranks": 8, "local": True}
    assert CONTROL_BYTES == 64


def test_topology_conveniences_are_attributes():
    """``cluster``/``num_ranks``/``topology`` are plain attributes; the
    only seed a rank reads is the machine's, which names the instance."""
    topo = das_topology(clusters=2, cluster_size=3)
    machine = Machine(topo, seed=11)
    seen = {}

    def body(ctx):
        seen[ctx.rank] = (ctx.topology, ctx.num_ranks, ctx.cluster,
                          ctx.is_local(0), ctx.machine.seed)
        assert not hasattr(ctx, "rng")
        yield ctx.compute(0)

    for r in topo.ranks():
        machine.spawn(r, body)
    machine.run()
    assert seen[0] == (topo, 6, 0, True, 11)
    assert seen[4] == (topo, 6, 1, False, 11)
