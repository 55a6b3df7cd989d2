"""Protocol-analyzer interpreter coverage over synthetic apps.

Each fixture is a tiny SPMD module written to ``tmp_path`` and analyzed
through :class:`~repro.lint.proto.ModuleSet` — the same entry points the
real repository goes through, minus the real apps' size.
"""

import textwrap

from repro.lint.proto import (LABEL_STABLE, LABEL_TIMING, LABEL_UNSTABLE,
                              ModuleSet, ProtoGraph, analyze_app, classify,
                              find_deadlocks, find_taints, find_unmatched,
                              proto_findings)
from repro.network.topology import das_topology


def skeleton_for(tmp_path, source, app="toy", variant="v1"):
    mod = tmp_path / "toy.py"
    mod.write_text(textwrap.dedent(source))
    modset = ModuleSet.from_paths([str(mod)])
    return analyze_app(modset, app, variant)


PINGPONG = """
    def make_main(cfg):
        def main(ctx):
            peer = (ctx.rank + 1) % ctx.num_ranks
            yield ctx.send(peer, 64, ("tok", 0), "hello")
            msg = yield ctx.recv(("tok", 0))
            yield ctx.compute(1.0)
        return main

    register_app("toy", "v1", make_main)
"""


def test_pingpong_skeleton_is_complete_and_stable(tmp_path):
    sk = skeleton_for(tmp_path, PINGPONG)
    assert not sk.incomplete
    kinds = [op.kind for op in sk.all_ops()]
    assert kinds == ["send", "recv", "compute"]
    send = sk.send_ops()[0]
    assert send.tag == ("tuple", (("const", "tok"), ("const", 0)))
    assert classify(sk).label == LABEL_STABLE
    assert find_unmatched(sk) == []
    assert find_deadlocks(sk) == []


def test_channel_graph_concretizes_and_covers_all_ranks(tmp_path):
    sk = skeleton_for(tmp_path, PINGPONG)
    graph = ProtoGraph.from_skeleton(sk)
    topo = das_topology(clusters=2, cluster_size=2)
    pairs = graph.concretize(topo)
    # Rank arithmetic widens the destination: every rank may send the
    # token anywhere, which is exactly the sound over-approximation the
    # superset contract needs.
    assert (0, 1) in pairs and (3, 0) in pairs


def test_polling_is_timing_sensitive(tmp_path):
    sk = skeleton_for(tmp_path, """
        def make_main(cfg):
            def main(ctx):
                yield ctx.send(0, 8, "w")
                msg = yield ctx.recv_nowait("w")
                yield ctx.compute(1.0)
            return main

        register_app("toy", "v1", make_main)
    """)
    got = classify(sk)
    assert got.label == LABEL_TIMING
    assert any("recv_nowait" in reason for reason in got.reasons)


def test_payload_dependent_work_loop_is_timing_sensitive(tmp_path):
    sk = skeleton_for(tmp_path, """
        def make_main(cfg):
            def main(ctx):
                while True:
                    msg = yield ctx.recv("work")
                    if msg.payload == "stop":
                        break
                    yield ctx.compute(0.1)
                    yield ctx.send(0, 8, "work")
            return main

        register_app("toy", "v1", make_main)
    """)
    got = classify(sk)
    assert got.label == LABEL_TIMING
    assert any("payload-dependent" in reason for reason in got.reasons)


def test_timing_dependent_flag_covers_every_variant(tmp_path):
    # is_timing_dependent() is keyed by app *name* at runtime, so one
    # flagged registration taints the optimized variant too.
    mod = tmp_path / "toy.py"
    mod.write_text(textwrap.dedent("""
        def make_main(cfg):
            def main(ctx):
                yield ctx.compute(1.0)
            return main

        register_app("toy", "v1", make_main, timing_dependent=True)
        register_app("toy", "v2", make_main)
    """))
    modset = ModuleSet.from_paths([str(mod)])
    for variant in ("v1", "v2"):
        got = classify(analyze_app(modset, "toy", variant))
        assert got.label == LABEL_TIMING
        assert "registered timing_dependent" in got.reasons


def test_parked_request_service_is_unstable(tmp_path):
    sk = skeleton_for(tmp_path, """
        def make_main(cfg):
            def service(ctx):
                parked = []
                while True:
                    msg = yield ctx.recv("req")
                    kind, rank = msg.payload
                    if kind == "park":
                        parked.append(rank)
                    else:
                        for waiter in parked:
                            yield ctx.send(waiter, 8, "grant")

            def main(ctx):
                if ctx.rank == 0:
                    ctx.spawn_service(service, name="toy-svc")
                yield ctx.send(0, 8, "req", ("park", ctx.rank))
                yield ctx.send(0, 8, "req", ("go", ctx.rank))
                msg = yield ctx.recv("grant")
            return main

        register_app("toy", "v1", make_main)
    """)
    assert not sk.incomplete
    got = classify(sk)
    assert got.label == LABEL_UNSTABLE
    assert any("defers message-derived sends" in r for r in got.reasons)


def test_pipelined_fanins_without_barrier_are_unstable(tmp_path):
    sk = skeleton_for(tmp_path, """
        def make_main(cfg):
            def main(ctx):
                for r in range(ctx.num_ranks):
                    yield ctx.send(r, 64, "phase-a")
                for _ in range(ctx.num_ranks):
                    msg = yield ctx.recv("phase-a")
                for r in range(ctx.num_ranks):
                    yield ctx.send(r, 64, "phase-b")
                for _ in range(ctx.num_ranks):
                    msg = yield ctx.recv("phase-b")
            return main

        register_app("toy", "v1", make_main)
    """)
    got = classify(sk)
    assert got.label == LABEL_UNSTABLE
    assert any("pipelined counted fan-ins" in r for r in got.reasons)


def test_self_service_deadlock_is_detected(tmp_path):
    sk = skeleton_for(tmp_path, """
        def make_main(cfg):
            def main(ctx):
                msg = yield ctx.recv("a")    # blocks before the only send
                yield ctx.send(0, 8, "a")
            return main

        register_app("toy", "v1", make_main)
    """)
    cycles = find_deadlocks(sk)
    assert len(cycles) == 1
    text = cycles[0].render()
    assert "static deadlock cycle" in text
    assert "rank*" in text and "'a'" in text


def test_wall_clock_taint_reaches_send_payload(tmp_path):
    sk = skeleton_for(tmp_path, """
        import time

        def make_main(cfg):
            def main(ctx):
                stamp = time.time()
                yield ctx.send(0, 8, "t", stamp)
                msg = yield ctx.recv("t")
            return main

        register_app("toy", "v1", make_main)
    """)
    flows = find_taints(sk)
    assert flows, "wall-clock payload must be reported"
    assert any(f.sink == "payload" and "wall-clock" in f.source
               for f in flows)


def test_every_static_rng_source_taints_a_send_size(tmp_path):
    """The interpreter's taint sources are the static checker's tables:
    ``random.gauss`` (absent from an older hand-kept subset) taints the
    size it feeds, and the lint reports it as ``proto-taint``."""
    sk = skeleton_for(tmp_path, """
        import random

        def make_main(cfg):
            def main(ctx):
                size = int(random.gauss(64, 8))
                yield ctx.send(0, size, "g")
                msg = yield ctx.recv("g")
            return main

        register_app("toy", "v1", make_main)
    """)
    flows = find_taints(sk)
    assert any(f.sink == "size" and "random.gauss" in f.source
               for f in flows), flows
    findings = proto_findings([sk])
    assert [f.rule for f in findings] == ["proto-taint"]


def test_unmatched_recv_is_reported_symbolically(tmp_path):
    sk = skeleton_for(tmp_path, """
        def make_main(cfg):
            def main(ctx):
                yield ctx.send(0, 8, "ping")
                msg = yield ctx.recv("pong")
            return main

        register_app("toy", "v1", make_main)
    """)
    unmatched = find_unmatched(sk)
    assert len(unmatched) == 1
    assert "'pong'" in unmatched[0].message()


def test_unresolved_call_widens_instead_of_failing(tmp_path):
    sk = skeleton_for(tmp_path, """
        from mystery_extension import exotic_exchange

        def make_main(cfg):
            def main(ctx):
                yield from exotic_exchange(ctx)
            return main

        register_app("toy", "v1", make_main)
    """)
    assert sk.incomplete
    # Soundness fallback: the widened graph admits any traffic, and the
    # classification takes the conservative bottom rung.
    graph = ProtoGraph.from_skeleton(sk)
    topo = das_topology(clusters=2, cluster_size=2)
    assert len(graph.concretize(topo)) == topo.num_ranks ** 2
    assert classify(sk).label == LABEL_TIMING
    assert find_unmatched(sk) == []     # widened graphs match everything
