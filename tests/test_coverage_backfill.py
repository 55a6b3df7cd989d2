"""Edge-case backfill for the MPI facade, Orca runtime, and MagPIe.

Degenerate shapes the protocol code must handle but the happy-path
suites never exercised: zero-byte messages, self-sends, single-rank
communicators/object spaces, empty remote sets.
"""

import operator

import pytest

from mpi import ANY_SOURCE, Communicator
from orca import ObjectSpec, OrcaEnv, Placement
from repro.magpie import hier
from repro.network import das_topology, single_cluster
from repro.runtime import Machine

TWO_CLUSTERS = das_topology(clusters=2, cluster_size=3)


def run_ranks(topo, body_factory, seed=0):
    machine = Machine(topo, seed=seed)
    for r in topo.ranks():
        machine.spawn(r, body_factory)
    machine.run()
    return machine


def run_mpi(topo, body_factory, collectives="magpie"):
    def main(ctx):
        comm = Communicator(ctx, collectives=collectives)
        result = yield from body_factory(comm)
        return result
    return run_ranks(topo, main)


# ----------------------------------------------------------------------
# MPI facade
# ----------------------------------------------------------------------
@pytest.mark.parametrize("collectives", ["flat", "magpie"])
def test_single_rank_communicator_runs_every_collective(collectives):
    def body(comm):
        assert (comm.rank, comm.size) == (0, 1)
        yield from comm.barrier()
        got = yield from comm.bcast("seed", root=0)
        assert got == "seed"
        assert (yield from comm.gather("g", root=0)) == ["g"]
        assert (yield from comm.scatter(["s"], root=0)) == "s"
        assert (yield from comm.allgather("a")) == ["a"]
        assert (yield from comm.alltoall(["x"])) == ["x"]
        assert (yield from comm.reduce(3, operator.add, root=0)) == 3
        assert (yield from comm.allreduce(4, operator.add)) == 4
        assert (yield from comm.reduce_scatter([5], operator.add)) == 5
        assert (yield from comm.scan(6, operator.add)) == 6
        return "done"

    machine = run_mpi(single_cluster(1), body, collectives)
    assert machine.results() == ["done"]


def test_self_send_and_recv():
    def body(comm):
        yield from comm.send({"to": "me"}, dest=comm.rank, tag=5)
        obj, src = yield from comm.recv(source=comm.rank, tag=5)
        return (obj["to"], src == comm.rank)

    machine = run_mpi(single_cluster(2), body)
    assert machine.results() == [("me", True), ("me", True)]


def test_zero_byte_messages_traverse_both_layers():
    def body(comm):
        right = (comm.rank + 1) % comm.size
        yield from comm.send(None, dest=right, tag=1, nbytes=0)
        _, src = yield from comm.recv(tag=1)
        return src

    machine = run_mpi(TWO_CLUSTERS, body)
    n = TWO_CLUSTERS.num_ranks
    assert machine.results() == [(r - 1) % n for r in range(n)]
    assert machine.stats.total_messages == n


def test_zero_byte_collectives():
    def body(comm):
        got = yield from comm.bcast("z" if comm.rank == 0 else None,
                                    root=0, nbytes=0)
        items = yield from comm.gather(comm.rank, root=0, nbytes=0)
        yield from comm.barrier()
        return (got, items)

    machine = run_mpi(TWO_CLUSTERS, body)
    got, items = machine.results()[0]
    assert got == "z"
    assert items == list(range(TWO_CLUSTERS.num_ranks))


def test_sendrecv_self_roundtrip():
    def body(comm):
        obj, src = yield from comm.sendrecv(comm.rank * 10, dest=comm.rank,
                                            source=comm.rank, tag=2)
        return (obj, src)

    machine = run_mpi(single_cluster(3), body)
    assert machine.results() == [(0, 0), (10, 1), (20, 2)]


# ----------------------------------------------------------------------
# Orca runtime
# ----------------------------------------------------------------------
def counter_spec():
    return ObjectSpec(
        name="counter",
        initial=lambda: {"value": 0, "history": []},
        reads={"get": lambda s: s["value"]},
        writes={"add": _add},
    )


def _add(state, amount):
    state["value"] += amount
    state["history"].append(amount)
    return state["value"]


def run_orca(topo, body_factory, placements=None):
    machine = Machine(topo)
    envs = {}

    def main(ctx):
        env = OrcaEnv(ctx, [counter_spec()], placements)
        envs[ctx.rank] = env
        yield ctx.compute(0)
        result = yield from body_factory(ctx, env)
        return result

    for r in topo.ranks():
        machine.spawn(r, main)
    machine.run()
    return machine, envs


def test_single_rank_replicated_object_needs_no_network():
    def body(ctx, env):
        first = yield from env.invoke("counter", "add", 5)
        second = yield from env.invoke("counter", "add", 2)
        value = yield from env.invoke("counter", "get")
        return (first, second, value)

    machine, envs = run_orca(single_cluster(1), body)
    assert machine.results() == [(5, 7, 7)]
    # Sequencer RPC, fan-out and completion all loop through rank 0;
    # nothing may cross a cluster boundary (there is none).
    assert machine.stats.inter.messages == 0
    assert envs[0].stats("counter")["applied_seq"] == 1


def test_owned_object_self_invocation_skips_rpc():
    placements = {"counter": Placement(replicated=False, home=0)}

    def body(ctx, env):
        if ctx.rank == 0:
            result = yield from env.invoke("counter", "add", 3)
            return result
        yield ctx.compute(0)
        return None

    machine, envs = run_orca(single_cluster(2), body, placements)
    assert machine.results()[0] == 3
    assert machine.stats.total_messages == 0  # pure local execution
    assert envs[0].stats("counter")["writes"] == 1
    # The non-home rank holds no state for an owned object.
    assert envs[1].local_state("counter") is None


def test_owned_object_remote_read_and_write_counts():
    placements = {"counter": Placement(replicated=False, home=0)}

    def body(ctx, env):
        if ctx.rank == 1:
            yield from env.invoke("counter", "add", 4)
            value = yield from env.invoke("counter", "get")
            return value
        yield ctx.compute(0)
        return None

    machine, envs = run_orca(single_cluster(2), body, placements)
    assert machine.results()[1] == 4
    home = envs[0].stats("counter")
    assert home["writes"] == 1 and home["reads"] == 1


def test_replicated_writers_converge_to_identical_histories():
    def body(ctx, env):
        yield from env.invoke("counter", "add", ctx.rank + 1)
        # A barrier-free settle: read until every write has been applied.
        while env.stats("counter")["applied_seq"] < ctx.num_ranks - 1:
            yield ctx.compute(1e-6)
        value = yield from env.invoke("counter", "get")
        return value

    topo = das_topology(clusters=2, cluster_size=2)
    machine, envs = run_orca(topo, body)
    total = sum(range(1, topo.num_ranks + 1))
    assert machine.results() == [total] * topo.num_ranks
    histories = [envs[r].local_state("counter")["history"]
                 for r in topo.ranks()]
    assert all(h == histories[0] for h in histories)  # same order everywhere


# ----------------------------------------------------------------------
# MagPIe hierarchical collectives
# ----------------------------------------------------------------------
def test_hier_gatherv_with_zero_byte_contributions():
    sizes = [0] * TWO_CLUSTERS.num_ranks

    def main(ctx):
        items = yield from hier.gatherv(ctx, "op0", 0, sizes, ctx.rank * 2)
        return items

    machine = run_ranks(TWO_CLUSTERS, main)
    assert machine.results()[0] == [2 * r for r in TWO_CLUSTERS.ranks()]


def test_hier_scatterv_heterogeneous_sizes():
    n = TWO_CLUSTERS.num_ranks
    sizes = [64 * (r + 1) for r in range(n)]

    def main(ctx):
        values = [f"chunk{r}" for r in range(n)] if ctx.rank == 0 else None
        mine = yield from hier.scatterv(ctx, "op1", 0, sizes, values)
        return mine

    machine = run_ranks(TWO_CLUSTERS, main)
    assert machine.results() == [f"chunk{r}" for r in range(n)]


def test_hier_alltoall_single_rank_has_no_remote_phase():
    def main(ctx):
        out = yield from hier.alltoall(ctx, "op2", 8, ["only"])
        return out

    machine = run_ranks(single_cluster(1), main)
    assert machine.results() == [["only"]]
    assert machine.stats.total_messages == 0


def test_hier_alltoallv_delivers_every_pair():
    n = TWO_CLUSTERS.num_ranks

    def main(ctx):
        values = [(ctx.rank, dst) for dst in range(n)]
        out = yield from hier.alltoallv(ctx, "op3", [32] * n, values)
        return out

    machine = run_ranks(TWO_CLUSTERS, main)
    for dst, row in enumerate(machine.results()):
        assert row == [(src, dst) for src in range(n)]


def test_hier_scan_matches_prefix_sums():
    def main(ctx):
        acc = yield from hier.scan(ctx, "op4", 16, ctx.rank + 1, operator.add)
        return acc

    machine = run_ranks(TWO_CLUSTERS, main)
    expected = [sum(range(1, r + 2)) for r in TWO_CLUSTERS.ranks()]
    assert machine.results() == expected


def test_hier_scan_single_rank():
    def main(ctx):
        acc = yield from hier.scan(ctx, "op5", 16, 42, operator.add)
        return acc

    machine = run_ranks(single_cluster(1), main)
    assert machine.results() == [42]
