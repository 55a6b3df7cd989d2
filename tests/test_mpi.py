"""Tests for the MPI-flavoured communicator facade."""

import operator

import pytest

from mpi import ANY_SOURCE, Communicator
from repro.network import das_topology, single_cluster
from repro.runtime import Machine


def run_mpi(topo, body_factory, collectives="magpie", seed=0):
    machine = Machine(topo, seed=seed)

    def main(ctx):
        comm = Communicator(ctx, collectives=collectives)
        result = yield from body_factory(comm)
        return result

    for r in topo.ranks():
        machine.spawn(r, main)
    machine.run()
    return machine


TOPO = das_topology(clusters=2, cluster_size=3)


class TestPointToPoint:
    def test_ring_exchange(self):
        def body(comm):
            right = (comm.rank + 1) % comm.size
            yield from comm.send(comm.rank, dest=right, tag=7)
            obj, src = yield from comm.recv(tag=7)
            return (obj, src)

        machine = run_mpi(TOPO, body)
        for rank, (obj, src) in enumerate(machine.results()):
            left = (rank - 1) % TOPO.num_ranks
            assert (obj, src) == (left, left)

    def test_recv_from_specific_source_stashes_others(self):
        def body(comm):
            if comm.rank in (1, 2):
                yield from comm.send(f"from{comm.rank}", dest=0)
                return None
            if comm.rank == 0:
                # Wait specifically for rank 2 first, then rank 1 —
                # whichever arrived first must be stashed, not lost.
                a, s2 = yield from comm.recv(source=2)
                b, s1 = yield from comm.recv(source=1)
                return (a, s2, b, s1)
            yield comm.ctx.compute(0)
            return None

        machine = run_mpi(TOPO, body)
        assert machine.results()[0] == ("from2", 2, "from1", 1)

    def test_any_source(self):
        def body(comm):
            if comm.rank == 0:
                got = []
                for _ in range(comm.size - 1):
                    obj, src = yield from comm.recv(source=ANY_SOURCE)
                    got.append((obj, src))
                return sorted(got)
            yield from comm.send(comm.rank * 10, dest=0)
            return None

        machine = run_mpi(TOPO, body)
        expected = sorted((r * 10, r) for r in range(1, TOPO.num_ranks))
        assert machine.results()[0] == expected

    def test_sendrecv(self):
        def body(comm):
            partner = comm.size - 1 - comm.rank
            obj, src = yield from comm.sendrecv(comm.rank, dest=partner,
                                                source=partner)
            return (obj, src)

        machine = run_mpi(TOPO, body)
        for rank, (obj, src) in enumerate(machine.results()):
            partner = TOPO.num_ranks - 1 - rank
            assert (obj, src) == (partner, partner)


class TestCollectives:
    @pytest.mark.parametrize("collectives", ["flat", "magpie"])
    def test_kernel_program(self, collectives):
        """bcast + allreduce + gather + scan + barrier, in one program."""
        def body(comm):
            params = yield from comm.bcast({"n": 3} if comm.rank == 0 else None)
            total = yield from comm.allreduce(comm.rank, operator.add)
            prefix = yield from comm.scan(1, operator.add)
            rows = yield from comm.gather((comm.rank, total))
            yield from comm.barrier()
            return (params["n"], total, prefix, rows if comm.rank == 0 else None)

        machine = run_mpi(TOPO, body, collectives)
        p = TOPO.num_ranks
        expected_total = sum(range(p))
        for rank, (n, total, prefix, rows) in enumerate(machine.results()):
            assert n == 3
            assert total == expected_total
            assert prefix == rank + 1
            if rank == 0:
                assert rows == [(r, expected_total) for r in range(p)]

    def test_scatter_alltoall_reduce_scatter(self):
        def body(comm):
            mine = yield from comm.scatter(
                [f"chunk{i}" for i in range(comm.size)] if comm.rank == 0 else None)
            swapped = yield from comm.alltoall(
                [comm.rank * 100 + d for d in range(comm.size)])
            rs = yield from comm.reduce_scatter(
                [d for d in range(comm.size)], operator.add)
            return (mine, swapped[0], rs)

        machine = run_mpi(TOPO, body)
        p = TOPO.num_ranks
        for rank, (mine, from0, rs) in enumerate(machine.results()):
            assert mine == f"chunk{rank}"
            assert from0 == rank  # rank 0's element for me: 0*100 + rank
            assert rs == rank * p

    def test_magpie_faster_than_flat_on_wan(self):
        topo = das_topology(clusters=4, cluster_size=8,
                            wan_latency_ms=10.0, wan_bandwidth_mbyte_s=1.0)

        def body(comm):
            for _ in range(3):
                yield from comm.bcast("x" if comm.rank == 0 else None,
                                      nbytes=8192)
                yield from comm.allreduce(1.0, operator.add)

        t_flat = run_mpi(topo, body, "flat").runtime()
        t_mag = run_mpi(topo, body, "magpie").runtime()
        assert t_mag < t_flat


def test_independent_communicators_do_not_collide():
    def body_factory(comm_a_name="a", comm_b_name="b"):
        def body(ctx):
            a = Communicator(ctx, name="a")
            b = Communicator(ctx, name="b")
            # Same tag on both communicators; must not cross-deliver.
            if ctx.rank == 0:
                yield from a.send("on-a", dest=1, tag=5)
                yield from b.send("on-b", dest=1, tag=5)
                return None
            if ctx.rank == 1:
                on_b, _ = yield from b.recv(tag=5)
                on_a, _ = yield from a.recv(tag=5)
                return (on_a, on_b)
            yield ctx.compute(0)
            return None
        return body

    machine = Machine(single_cluster(3))
    body = body_factory()
    for r in range(3):
        machine.spawn(r, body)
    machine.run()
    assert machine.results()[1] == ("on-a", "on-b")
