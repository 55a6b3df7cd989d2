"""Collective algorithm selection across the NUMA gap.

Real MPI implementations switch collective algorithms by message size
and machine; on a two-layer interconnect the choice also depends on the
gap.  This experiment times every implemented algorithm family for
broadcast, allgather and allreduce at three operating points (flat fast
network, moderate WAN, harsh WAN) and prints the winner per cell — the
tuning table a MagPIe-style library would ship.

Run: ``python -m repro algselect [--size 8192]``
"""

from __future__ import annotations

import argparse
import operator
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from ..magpie import algorithms as alg
from ..magpie import flat, hier
from ..network.topology import Topology, das_topology, single_cluster
from ..runtime.machine import Machine
from .report import render_table

OPERATING_POINTS: Dict[str, Topology] = {
    "single cluster": single_cluster(32),
    "WAN 3.3ms/6MBs": das_topology(clusters=4, cluster_size=8,
                                   wan_latency_ms=3.3, wan_bandwidth_mbyte_s=6.0),
    "WAN 30ms/0.5MBs": das_topology(clusters=4, cluster_size=8,
                                    wan_latency_ms=30.0, wan_bandwidth_mbyte_s=0.5),
}


def _time(topo: Topology, body_factory: Callable, repeats: int = 3) -> float:
    machine = Machine(topo)

    def main(ctx):
        for i in range(repeats):
            yield from body_factory(ctx, i)

    for r in topo.ranks():
        machine.spawn(r, main)
    machine.run()
    return machine.runtime() / repeats


def bcast_candidates(size: int) -> Dict[str, Callable]:
    def binomial(ctx, i):
        yield from flat.bcast(ctx, ("b", i), 0, size,
                              "x" if ctx.rank == 0 else None)

    def van_de_geijn(ctx, i):
        yield from alg.scatter_allgather_bcast(ctx, ("v", i), 0, size,
                                               "x" if ctx.rank == 0 else None)

    def magpie(ctx, i):
        yield from hier.bcast(ctx, ("m", i), 0, size,
                              "x" if ctx.rank == 0 else None)

    return {"binomial": binomial, "van de Geijn": van_de_geijn,
            "MagPIe": magpie}


def allgather_candidates(size: int) -> Dict[str, Callable]:
    def gather_bcast(ctx, i):
        yield from flat.allgather(ctx, ("g", i), size, ctx.rank)

    def ring(ctx, i):
        yield from alg.ring_allgather(ctx, ("r", i), size, ctx.rank)

    def magpie(ctx, i):
        yield from hier.allgather(ctx, ("m", i), size, ctx.rank)

    return {"gather+bcast": gather_bcast, "ring": ring, "MagPIe": magpie}


def allreduce_candidates(size: int) -> Dict[str, Callable]:
    def binomial_bcast(ctx, i):
        yield from flat.allreduce(ctx, ("f", i), size, 1.0, operator.add)

    def recursive_doubling(ctx, i):
        yield from alg.recursive_doubling_allreduce(ctx, ("rd", i), size, 1.0,
                                                    operator.add)

    def rabenseifner(ctx, i):
        p = ctx.num_ranks
        yield from alg.rabenseifner_allreduce(
            ctx, ("rb", i), max(1, size // p), [1.0] * p, operator.add)

    def magpie(ctx, i):
        yield from hier.allreduce(ctx, ("m", i), size, 1.0, operator.add)

    return {"reduce+bcast": binomial_bcast,
            "recursive doubling": recursive_doubling,
            "Rabenseifner": rabenseifner, "MagPIe": magpie}


OPERATIONS = {
    "bcast": bcast_candidates,
    "allgather": allgather_candidates,
    "allreduce": allreduce_candidates,
}


def selection_table(size: int) -> List[List[str]]:
    rows = []
    for op_name, factory in OPERATIONS.items():
        candidates = factory(size)
        for cand_name, body in candidates.items():
            row = [f"{op_name}: {cand_name}"]
            for point_name, topo in OPERATING_POINTS.items():
                row.append(f"{_time(topo, body) * 1e3:9.2f}")
            rows.append(row)
        rows.append(["-" * 4] + ["-" * 9] * len(OPERATING_POINTS))
    return rows[:-1]


def winners(size: int) -> Dict[Tuple[str, str], str]:
    """(operation, operating point) -> fastest algorithm name."""
    out: Dict[Tuple[str, str], str] = {}
    for op_name, factory in OPERATIONS.items():
        candidates = factory(size)
        for point_name, topo in OPERATING_POINTS.items():
            times = {name: _time(topo, body)
                     for name, body in candidates.items()}
            out[(op_name, point_name)] = min(times, key=times.get)
    return out


def main(argv: Optional[list] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=8192)
    args = parser.parse_args(argv)

    print(render_table(
        ["algorithm \\ machine (ms)"] + list(OPERATING_POINTS),
        selection_table(args.size),
        title=f"Collective algorithm selection, payload {args.size} bytes",
    ))
    print()
    best = winners(args.size)
    rows = [[op, *(best[(op, pt)] for pt in OPERATING_POINTS)]
            for op in OPERATIONS]
    print(render_table(["operation"] + list(OPERATING_POINTS), rows,
                       title="Winner per cell"))
