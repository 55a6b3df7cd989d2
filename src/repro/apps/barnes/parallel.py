"""Parallel Barnes-Hut: BSP supersteps with precomputed LET exchange.

Unoptimized (uniform-network design)
    Blackston & Suel's BSP code: each iteration, every rank sends one
    combined LET message to *every other rank* (per-recipient message
    combining is standard BSP practice), with strict barrier-separated
    supersteps.  On a multi-cluster, each sender pays p - cluster_size
    WAN messages per iteration and the barriers serialize on the WAN.

Optimized (the paper's improvement)
    1. Each sender combines the messages for all recipients in the same
       remote cluster into a single message to that cluster's gateway
       rank, which dispatches them locally (WAN messages per sender drop
       from 24 to 3 on the 4x8 system; bytes are unchanged).
    2. The strict barriers are relaxed: receives are matched by explicit
       iteration sequence numbers instead (no global synchronization).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

import numpy as np

from ...costmodel import calibration as cal
from ...runtime.barrier import flat_barrier
from ...runtime.context import Context
from ...runtime.reduction import linear_reduce
from ..base import register_app
from ..blockdist import partition
from . import kernel

LET_TAG = "bh-let"
GW_TAG = "bh-gw"
BBOX_TAG = "bh-bbox"


@dataclass
class BarnesConfig:
    """Problem size and cost parameters."""

    bodies: int = 65_536
    iterations: int = 1
    theta: float = 0.6
    real_data: bool = False
    sec_per_interaction: float = cal.BARNES_SEC_PER_INTERACTION
    interactions_per_body: float = cal.BARNES_INTERACTIONS_PER_BODY
    sec_tree_per_body: float = cal.BARNES_SEC_TREE_PER_BODY
    let_bytes_per_pair: int = cal.BARNES_LET_BYTES_PER_PAIR
    #: Size of one *union* LET for a whole remote cluster, relative to a
    #: single pair's LET.  The eight recipients' LETs overlap heavily (they
    #: are spatially adjacent), so their union is far smaller than their sum
    #: — the bandwidth half of the cluster-combining optimization.
    let_union_factor: float = cal.BARNES_LET_UNION_FACTOR
    record_bytes: int = cal.BARNES_RECORD_BYTES
    dt: float = 0.05
    #: Ablation knob: None follows the variant (unoptimized = strict BSP
    #: barriers, optimized = sequence-number receives); True/False forces.
    strict_barriers: Optional[bool] = None


def _gateway_service(ctx: Context) -> Generator:
    """Cluster gateway daemon (optimized variant): unpacks combined LET
    bundles from remote senders and dispatches them to local recipients."""
    while True:
        msg = yield ctx.recv(GW_TAG)
        for dst, size, tag, payload in msg.payload:
            yield ctx.send(dst, size, tag, payload)


def _let_payload_and_size(cfg: BarnesConfig, tree, lo, hi) -> Tuple[Any, int]:
    if cfg.real_data:
        items = kernel.let_items(tree, lo, hi, cfg.theta)
        return items, max(1, len(items)) * cfg.record_bytes
    return None, cfg.let_bytes_per_pair


def _let_union_payload_and_size(cfg: BarnesConfig, tree, boxes) -> Tuple[Any, int]:
    """One LET covering a whole remote cluster's combined region.

    The conservative acceptance criterion over the union box is valid for
    every member region it contains, so all recipients can share it.
    """
    if cfg.real_data:
        import numpy as np

        lo = np.min([b[0] for b in boxes], axis=0)
        hi = np.max([b[1] for b in boxes], axis=0)
        items = kernel.let_items(tree, lo, hi, cfg.theta)
        return items, max(1, len(items)) * cfg.record_bytes
    return None, int(cfg.let_bytes_per_pair * cfg.let_union_factor)


def _make_driver(cfg: BarnesConfig, optimized: bool) -> Callable[[Context], Generator]:
    def main(ctx: Context) -> Generator:
        p = ctx.num_ranks
        rank = ctx.rank
        topo = ctx.topology
        n = cfg.bodies
        counts = [len(partition(n, p, r)) for r in range(p)]
        barrier_seq = [0]
        strict = cfg.strict_barriers
        if strict is None:
            strict = not optimized

        def superstep_barrier():
            """Strict BSP barrier (unoptimized default; the optimized code
            relies on iteration-tagged receives instead)."""
            if strict:
                barrier_seq[0] += 1
                return flat_barrier(ctx, ("bh", barrier_seq[0]))
            return iter(())  # no-op generator

        pos = vel = mass = None
        if cfg.real_data:
            all_pos, all_mass, all_vel = kernel.random_bodies(
                n, ctx.machine.seed)
            order = kernel.morton_order(all_pos)
            mine = partition(n, p, rank)
            sel = order[mine.start:mine.stop]
            pos = all_pos[sel].copy()
            mass = all_mass[sel].copy()
            vel = all_vel[sel].copy()

        gateway = topo.cluster_leader(ctx.cluster)
        if optimized and rank == gateway and topo.num_clusters > 1:
            ctx.spawn_service(_gateway_service, name="bh-gateway")

        for it in range(cfg.iterations):
            # ----- Superstep 1: local tree construction --------------------
            yield ctx.compute(counts[rank] * cfg.sec_tree_per_body)
            tree = None
            regions: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
            if cfg.real_data:
                tree = kernel.build_octree(pos, mass)
                # All ranks need each other's bounding boxes to build LETs:
                # a cheap allgather of 48-byte boxes.
                my_box = (pos.min(axis=0), pos.max(axis=0))
                for r in range(p):
                    if r != rank:
                        yield ctx.send(r, 48, (BBOX_TAG, it), my_box)
                regions[rank] = my_box
                for _ in range(p - 1):
                    msg = yield ctx.recv((BBOX_TAG, it))
                    regions[msg.src] = msg.payload

            # ----- Superstep 2: LET exchange -------------------------------
            tag = (LET_TAG, it)
            if optimized and topo.num_clusters > 1:
                # One combined message per remote cluster, via its gateway.
                for cid in topo.clusters():
                    if cid == ctx.cluster:
                        for dst in topo.cluster_members(cid):
                            if dst == rank:
                                continue
                            payload, size = _let_payload_and_size(
                                cfg, tree, *(regions.get(dst) or (None, None)))
                            yield ctx.send(dst, size, tag, (rank, payload))
                    else:
                        # One *union* LET for the whole remote cluster: the
                        # members' regions are spatially adjacent, so their
                        # LETs overlap heavily and the union is much smaller
                        # than their sum.  The gateway forwards a copy to
                        # each member (cheap local traffic).  The original
                        # sender rides inside the payload because the
                        # gateway's forwards carry its own rank as source.
                        members = list(topo.cluster_members(cid))
                        boxes = [regions[dst] for dst in members]                             if cfg.real_data else None
                        payload, size = _let_union_payload_and_size(
                            cfg, tree, boxes)
                        bundle = [(dst, size, tag, (rank, payload))
                                  for dst in members]
                        yield ctx.send(topo.cluster_leader(cid), size,
                                       GW_TAG, bundle)
            else:
                for dst in range(p):
                    if dst == rank:
                        continue
                    payload, size = _let_payload_and_size(
                        cfg, tree, *(regions.get(dst) or (None, None)))
                    yield ctx.send(dst, size, tag, (rank, payload))

            remote_lets: Dict[int, Any] = {}
            for _ in range(p - 1):
                msg = yield ctx.recv(tag)
                sender, let_payload = msg.payload
                remote_lets[sender] = let_payload
            yield from superstep_barrier()

            # ----- Superstep 3: force computation --------------------------
            if cfg.real_data:
                forces = np.zeros_like(pos)
                interactions = 0
                for i in range(len(pos)):
                    f, cnt = kernel.force_on(pos[i], tree, cfg.theta, skip_body=i)
                    interactions += cnt
                    for src in sorted(remote_lets):
                        items = remote_lets[src]
                        f = f + kernel.force_from_items(pos[i], items)
                        interactions += len(items)
                    forces[i] = f
                yield ctx.compute(interactions * cfg.sec_per_interaction)
            else:
                yield ctx.compute(counts[rank] * cfg.interactions_per_body
                                  * cfg.sec_per_interaction)
            yield from superstep_barrier()

            # ----- Superstep 4: integration --------------------------------
            yield ctx.compute(counts[rank] * cfg.sec_tree_per_body * 0.25)
            if cfg.real_data:
                vel = vel + cfg.dt * forces
                pos = pos + cfg.dt * vel
            yield from superstep_barrier()

        return (pos, vel) if cfg.real_data else None

    return main


def make_unoptimized(cfg: BarnesConfig) -> Callable[[Context], Generator]:
    return _make_driver(cfg, optimized=False)


def make_optimized(cfg: BarnesConfig) -> Callable[[Context], Generator]:
    return _make_driver(cfg, optimized=True)


def _default_config(scale: str) -> BarnesConfig:
    from ...costmodel import get_scale

    ws = get_scale(scale)
    return BarnesConfig(bodies=ws.barnes_bodies, iterations=ws.barnes_iterations)


register_app("barnes", "unoptimized", make_unoptimized, _default_config)
register_app("barnes", "optimized", make_optimized)
