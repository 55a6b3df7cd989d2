"""Tests for the Orca shared-object layer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orca import ObjectSpec, OrcaEnv, Placement, choose_placement
from repro.network import das_topology, single_cluster
from repro.runtime import Machine


def counter_spec(**kwargs):
    return ObjectSpec(
        name="counter",
        initial=lambda: {"value": 0, "history": []},
        reads={"get": lambda s: s["value"]},
        writes={"add": _add},
        **kwargs,
    )


def _add(state, amount):
    state["value"] += amount
    state["history"].append(amount)
    return state["value"]


def run_orca(topo, body_factory, specs=None, placements=None, seed=0):
    machine = Machine(topo, seed=seed)
    envs = {}

    def main(ctx):
        env = OrcaEnv(ctx, specs or [counter_spec()], placements)
        envs[ctx.rank] = env
        yield ctx.compute(0)
        result = yield from body_factory(ctx, env)
        return result

    for r in topo.ranks():
        machine.spawn(r, main)
    machine.run()
    return machine, envs


# ----------------------------------------------------------------------
# Object declarations
# ----------------------------------------------------------------------
class TestObjectSpec:
    def test_rejects_overlapping_ops(self):
        with pytest.raises(ValueError, match="both read and write"):
            ObjectSpec("x", dict, reads={"a": len}, writes={"a": len})

    def test_rejects_empty_ops(self):
        with pytest.raises(ValueError, match="no operations"):
            ObjectSpec("x", dict)

    def test_unknown_operation(self):
        spec = counter_spec()
        with pytest.raises(KeyError):
            spec.operation("frobnicate")
        with pytest.raises(KeyError):
            spec.is_write("frobnicate")

    def test_choose_placement_heuristic(self):
        assert choose_placement(10.0, 32).replicated
        assert not choose_placement(0.1, 32).replicated


# ----------------------------------------------------------------------
# Replicated objects
# ----------------------------------------------------------------------
TOPO = das_topology(clusters=2, cluster_size=3,
                    wan_latency_ms=3.0, wan_bandwidth_mbyte_s=1.0)


def test_replicated_writes_sum_on_every_replica():
    def body(ctx, env):
        for i in range(3):
            yield from env.invoke("counter", "add", ctx.rank + 1)
        # Everyone waits long enough for all writes to land (the machine
        # keeps running until main processes finish; give the replicas a
        # final read after a barrier-ish delay).
        from repro.runtime.barrier import tree_barrier
        yield from tree_barrier(ctx, "orca-sync")
        value = yield from env.invoke("counter", "get")
        return value

    machine, envs = run_orca(TOPO, body)
    expected = 3 * sum(r + 1 for r in TOPO.ranks())
    # Every rank eventually read the full total...
    # (writes are ordered, the barrier ensures all were applied)
    for rank, result in enumerate(machine.results()):
        assert result == expected, rank


def test_replicas_apply_identical_histories():
    def body(ctx, env):
        yield from env.invoke("counter", "add", 10 + ctx.rank)
        yield from env.invoke("counter", "add", 100 + ctx.rank)
        from repro.runtime.barrier import tree_barrier
        yield from tree_barrier(ctx, "orca-sync")
        return tuple(env.local_state("counter")["history"])

    machine, envs = run_orca(TOPO, body)
    histories = machine.results()
    assert len(set(histories)) == 1, "total order violated"
    assert len(histories[0]) == 2 * TOPO.num_ranks


def test_write_returns_result_at_its_sequence_position():
    """add() returns the counter *after* this write in the global order —
    so the multiset of returned values is exactly the running sums."""
    def body(ctx, env):
        out = yield from env.invoke("counter", "add", 1)
        return out

    machine, _ = run_orca(TOPO, body)
    returns = sorted(machine.results())
    assert returns == list(range(1, TOPO.num_ranks + 1))


def test_replicated_reads_send_no_messages():
    topo = single_cluster(4)

    def body(ctx, env):
        total = 0
        for _ in range(10):
            total = yield from env.invoke("counter", "get")
        return total

    machine, _ = run_orca(topo, body)
    assert machine.stats.total_messages == 0


def test_replicated_write_wan_messages_once_per_cluster():
    def body(ctx, env):
        if ctx.rank == 0:
            yield from env.invoke("counter", "add", 1)
        else:
            yield ctx.compute(0)

    machine, _ = run_orca(das_topology(clusters=4, cluster_size=8), body)
    # Writer on the sequencer's rank: no WAN seq RPC; the fan-out is one
    # message per remote cluster leader.
    assert machine.stats.inter.messages == 3


# ----------------------------------------------------------------------
# Owned objects
# ----------------------------------------------------------------------
def test_owned_object_operations_via_rpc():
    placements = {"counter": Placement(replicated=False, home=2)}

    def body(ctx, env):
        yield from env.invoke("counter", "add", ctx.rank)
        from repro.runtime.barrier import tree_barrier
        yield from tree_barrier(ctx, "sync")
        value = yield from env.invoke("counter", "get")
        return value

    machine, envs = run_orca(TOPO, body, placements=placements)
    expected = sum(TOPO.ranks())
    assert all(v == expected for v in machine.results())
    # Only the home holds state.
    assert envs[2].local_state("counter") is not None
    assert envs[0].local_state("counter") is None


def test_owned_object_home_local_ops_are_free():
    placements = {"counter": Placement(replicated=False, home=0)}
    topo = single_cluster(1)

    def body(ctx, env):
        yield from env.invoke("counter", "add", 5)
        value = yield from env.invoke("counter", "get")
        return value

    machine, _ = run_orca(topo, body, placements=placements)
    assert machine.results() == [5]
    assert machine.stats.total_messages == 0


# ----------------------------------------------------------------------
# Strategy performance characteristics
# ----------------------------------------------------------------------
def test_replication_wins_read_mostly_owned_wins_write_mostly():
    topo = das_topology(clusters=2, cluster_size=4,
                        wan_latency_ms=10.0, wan_bandwidth_mbyte_s=1.0)

    def make_body(reads, writes):
        def body(ctx, env):
            for i in range(writes):
                yield from env.invoke("counter", "add", 1)
            for i in range(reads):
                yield from env.invoke("counter", "get")
        return body

    def runtime_with(placement, reads, writes):
        machine, _ = run_orca(topo, make_body(reads, writes),
                              placements={"counter": placement})
        return machine.runtime()

    replicated = Placement(replicated=True, home=0)
    owned = Placement(replicated=False, home=0)
    # Read-mostly: replication avoids p x reads of WAN RPCs.
    assert runtime_with(replicated, 20, 1) < runtime_with(owned, 20, 1)
    # Write-only: the ordered broadcast per write costs more than RPCs.
    assert runtime_with(owned, 0, 10) < runtime_with(replicated, 0, 10)


@settings(max_examples=10, deadline=None)
@given(writes_per_rank=st.integers(min_value=0, max_value=5),
       seed=st.integers(min_value=0, max_value=5))
def test_total_order_property(writes_per_rank, seed):
    """Any concurrent write schedule yields identical replica histories."""
    topo = das_topology(clusters=2, cluster_size=2)

    def body(ctx, env):
        for i in range(writes_per_rank):
            yield from env.invoke("counter", "add", ctx.rank * 100 + i)
        from repro.runtime.barrier import tree_barrier
        yield from tree_barrier(ctx, "sync")
        return tuple(env.local_state("counter")["history"])

    machine, _ = run_orca(topo, body, seed=seed)
    histories = set(machine.results())
    assert len(histories) == 1
