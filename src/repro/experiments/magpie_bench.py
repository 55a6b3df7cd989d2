"""Section 6: MagPIe's wide-area collectives vs. a flat MPICH-like MPI.

Times all fourteen collective operations on 4 clusters of 8 at the
paper's operating point (10 ms one-way latency, 1 MByte/s per link) and
reports the flat/MagPIe completion-time ratio, plus a latency sweep
showing how the absolute advantage grows.

Run: ``python -m repro magpie``
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Optional, Tuple

from ..magpie import COLLECTIVE_NAMES, get_impl, invoke
from ..network.topology import Topology
from ..runtime.machine import Machine
from . import grids
from .report import render_table

OPERATING_POINT = dict(wan_latency_ms=10.0, wan_bandwidth_mbyte_s=1.0)


def time_collective(impl_name: str, name: str, topo: Topology,
                    size: int = 1024, repeats: int = 4, seed: int = 0) -> float:
    """Completion time of ``repeats`` back-to-back collectives."""
    machine = Machine(topo, seed=seed)
    impl = get_impl(impl_name)

    def body(ctx):
        for i in range(repeats):
            yield from invoke(ctx, impl, name, op_id=(name, i), size=size)

    for r in topo.ranks():
        machine.spawn(r, body)
    machine.run()
    machine.seal()          # the run is over: cut its cycles, as run_spmd
    return machine.runtime() / repeats


def compare_all(size: int = 1024, seed: int = 0) -> List[Tuple[str, float, float, float]]:
    topo = grids.multi_cluster(OPERATING_POINT["wan_bandwidth_mbyte_s"],
                               OPERATING_POINT["wan_latency_ms"])
    rows = []
    for name in COLLECTIVE_NAMES:
        t_flat = time_collective("flat", name, topo, size, seed=seed)
        t_mag = time_collective("magpie", name, topo, size, seed=seed)
        rows.append((name, t_flat, t_mag, t_flat / t_mag))
    return rows


def latency_sweep(name: str = "bcast", size: int = 1024) -> List[Tuple[float, float, float]]:
    out = []
    for lat in grids.LATENCIES_MS:
        topo = grids.multi_cluster(1.0, lat)
        t_flat = time_collective("flat", name, topo, size)
        t_mag = time_collective("magpie", name, topo, size)
        out.append((lat, t_flat, t_mag))
    return out


def main(argv: Optional[list] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=1024,
                        help="per-item payload bytes")
    args = parser.parse_args(argv)

    rows = [[name, f"{tf * 1e3:8.2f}", f"{tm * 1e3:8.2f}", f"{ratio:5.2f}x"]
            for name, tf, tm, ratio in compare_all(size=args.size)]
    print(render_table(
        ["collective", "flat ms", "magpie ms", "speedup"],
        rows,
        title=("Section 6 — MagPIe vs MPICH-like collectives "
               "(4x8, 10 ms, 1 MByte/s; paper: 'up to 10 times faster')"),
    ))
    print()

    sweep = [[f"{lat:g} ms", f"{tf * 1e3:8.2f}", f"{tm * 1e3:8.2f}",
              f"{(tf - tm) * 1e3:8.2f}"]
             for lat, tf, tm in latency_sweep()]
    print(render_table(
        ["WAN latency", "flat bcast ms", "magpie bcast ms", "saved ms"],
        sweep,
        title="Broadcast latency sweep — the absolute advantage grows with latency",
    ))
