"""Parallel ASP: sequencer-ordered row broadcasts (Floyd-Warshall).

Unoptimized (uniform-network design)
    A fixed sequencer node (rank 0) issues sequence numbers for the
    totally-ordered row broadcasts.  The sender of row k must complete a
    synchronous RPC to the sequencer *before* broadcasting; on a
    4-cluster machine 75% of these RPCs pay the WAN round trip — once
    per row, 1500 times.

Optimized (the paper's improvement)
    The sequencer *migrates* to the cluster of the current sender, which
    ASP's regular structure makes possible: rows are broadcast in block
    order, so the sequencer moves only C-1 times (3 WAN round trips
    total) and every other request is cluster-local.

Both variants broadcast rows through the same two-level multicast tree
(point-to-point to cluster gateways, multicast inside clusters), as
described in Section 3.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, Optional

import numpy as np

from ...costmodel import calibration as cal
from ...runtime.bcast import hier_bcast
from ...runtime.context import Context
from ...runtime.sequencer import SequencerService, get_seq, migrate_sequencer
from ..base import register_app
from ..blockdist import owner_of, partition
from . import kernel


@dataclass
class AspConfig:
    """Problem size and cost parameters."""

    n: int = 1500
    real_data: bool = False
    sec_per_cell: float = cal.ASP_SEC_PER_CELL
    row_bytes: int = cal.ASP_ROW_BYTES


def _make_driver(cfg: AspConfig, migrating: bool) -> Callable[[Context], Generator]:
    def main(ctx: Context) -> Generator:
        p = ctx.num_ranks
        rank = ctx.rank
        topo = ctx.topology
        n = cfg.n
        mine = partition(n, p, rank)

        block = None
        if cfg.real_data:
            full = kernel.random_graph(n, ctx.machine.seed)
            block = full[mine.start:mine.stop].copy()

        # Sequencer placement: fixed on rank 0, or hosted by every cluster
        # leader with only the first initially active.
        if migrating:
            seq_hosts = [topo.cluster_leader(c) for c in topo.clusters()]
        else:
            seq_hosts = [0]
        if rank in seq_hosts:
            service = SequencerService(initially_active=(rank == seq_hosts[0]))
            ctx.spawn_service(service.body, name="asp-seq")

        def sequencer_for(k: int) -> int:
            if not migrating:
                return 0
            return topo.cluster_leader(topo.cluster_of(owner_of(n, p, k)))

        row_compute = len(mine) * n * cfg.sec_per_cell

        for k in range(n):
            owner = owner_of(n, p, k)
            if rank == owner:
                seq_rank = sequencer_for(k)
                if migrating and k > 0:
                    prev_seq = sequencer_for(k - 1)
                    if prev_seq != seq_rank:
                        # First row broadcast from a new cluster: pull the
                        # sequencer over (one WAN round trip, 3 times total).
                        yield from migrate_sequencer(ctx, prev_seq, seq_rank)
                yield from get_seq(ctx, seq_rank)
                row_payload = block[k - mine.start].copy() if cfg.real_data else None
                row_k = yield from hier_bcast(ctx, ("asp-row", k), owner,
                                              cfg.row_bytes, row_payload)
            else:
                row_k = yield from hier_bcast(ctx, ("asp-row", k), owner,
                                              cfg.row_bytes, None)

            yield ctx.compute(row_compute)
            if cfg.real_data:
                kernel.relax_block(block, block[:, k], row_k)

        return block if cfg.real_data else None

    return main


def make_unoptimized(cfg: AspConfig) -> Callable[[Context], Generator]:
    return _make_driver(cfg, migrating=False)


def make_optimized(cfg: AspConfig) -> Callable[[Context], Generator]:
    return _make_driver(cfg, migrating=True)


def _default_config(scale: str) -> AspConfig:
    from ...costmodel import PAPER, get_scale

    ws = get_scale(scale)
    # Reduced-n sweeps must keep the *per-row* compute time and row size at
    # paper scale (relative speedup is a per-row property); per-cell cost
    # scales with (n_paper / n)^2 to compensate for both the narrower rows
    # and the smaller per-rank block.
    factor = (PAPER.asp_n / ws.asp_n) ** 2
    return AspConfig(n=ws.asp_n, sec_per_cell=cal.ASP_SEC_PER_CELL * factor)


register_app("asp", "unoptimized", make_unoptimized, _default_config)
register_app("asp", "optimized", make_optimized)
