"""Parallel TSP: centralized job queue vs. per-cluster queues with stealing.

Unoptimized (uniform-network design)
    A single job queue on rank 0.  Every job fetch is an RPC; on a
    4-cluster machine 75% of fetches pay the WAN round trip, making the
    program latency-bound (its tiny messages make it bandwidth-immune —
    the distinctive TSP profile in Figure 3).

Optimized
    One queue per cluster (on the cluster leader), workers fetch locally;
    an empty queue steals batches from remote queues.  Inter-cluster
    traffic then scales with the number of clusters, not processors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Generator, List, Optional, Tuple

from ...costmodel import calibration as cal
from ...runtime.context import Context
from ...runtime.memo import item_memo
from ...runtime.reduction import hier_reduce, linear_reduce
from ...runtime.workqueue import (
    CentralQueueService,
    ClusterQueueService,
    get_central_job,
    get_cluster_job,
)
from ...sim.rng import make_rng
from ..base import register_app
from . import kernel


@dataclass
class TspConfig:
    """Problem size and cost parameters."""

    cities: int = 16
    job_depth: int = 5
    num_jobs: Optional[int] = 2048  # None = full enumeration (paper scale)
    real_data: bool = False
    mean_job_sec: float = cal.TSP_MEAN_JOB_SEC
    job_sigma: float = cal.TSP_JOB_SIGMA
    job_bytes: int = cal.TSP_JOB_BYTES
    #: real-data mode: CPU time per explored search node.
    sec_per_node: float = 2e-6
    #: fraction of a victim queue taken per steal.
    steal_fraction: float = 0.5
    #: ablation knob: place every job in cluster 0's queue initially, so
    #: the other clusters depend entirely on work stealing.
    imbalanced_start: bool = False


def _synthetic_count(cfg: TspConfig) -> int:
    return cfg.num_jobs if cfg.num_jobs is not None else cal.TSP_PAPER_JOBS


def _make_jobs(cfg: TspConfig) -> List:
    """Job list: real partial tours, or synthetic indices at scale."""
    if cfg.real_data:
        return kernel.enumerate_jobs(cfg.cities, cfg.job_depth)
    return list(range(_synthetic_count(cfg)))


#: Job durations the memo keeps: two paper-scale job lists (a float each,
#: ~2 MB in all), so alternating two configurations does not evict either.
DURATION_MEMO_ITEMS = 2 * cal.TSP_PAPER_JOBS


@item_memo(DURATION_MEMO_ITEMS)
def _job_durations(seed: int, mean_job_sec: float, job_sigma: float,
                   count: int) -> Tuple[float, ...]:
    """Synthetic runtimes of jobs ``0..count-1``: heavy-tailed around the
    calibrated mean.

    Deterministic per (seed, job), so runs are reproducible and the total
    work is identical however jobs are distributed — and the same at every
    grid point, so a sweep draws them once.
    """
    mu = math.log(mean_job_sec) - job_sigma ** 2 / 2
    return tuple(make_rng(seed, f"tsp-job-{job}").lognormvariate(mu, job_sigma)
                 for job in range(count))


def _synthetic_durations(cfg: TspConfig, seed: int) -> Tuple[float, ...]:
    """Durations of the synthetic job list :func:`_make_jobs` builds for
    the instance ``seed`` names."""
    return _job_durations(seed, cfg.mean_job_sec, cfg.job_sigma,
                          _synthetic_count(cfg))


def _work_on(ctx: Context, cfg: TspConfig, job, dist, bound,
             durations) -> Generator:
    """Process one job; returns the best tour length found (or None)."""
    if cfg.real_data:
        length, nodes = kernel.search_job(dist, job, bound)
        yield ctx.compute(nodes * cfg.sec_per_node)
        return length
    yield ctx.compute(durations[job])
    return None


def make_unoptimized(cfg: TspConfig) -> Callable[[Context], Generator]:
    def main(ctx: Context) -> Generator:
        dist = bound = durations = None
        if cfg.real_data:
            dist = kernel.random_cities(cfg.cities, ctx.machine.seed)
            bound = kernel.greedy_bound(dist)
        else:
            durations = _synthetic_durations(cfg, ctx.machine.seed)
        if ctx.rank == 0:
            service = CentralQueueService(_make_jobs(cfg), job_bytes=cfg.job_bytes)
            ctx.spawn_service(service.body, name="tsp-queue")

        best = bound
        while True:
            job = yield from get_central_job(ctx, 0)
            if job is None:
                break
            length = yield from _work_on(ctx, cfg, job, dist, bound, durations)
            if length is not None and (best is None or length < best):
                best = length

        result = yield from linear_reduce(
            ctx, "tsp-best", 0, 64, best, _min_or_none)
        return result

    return main


def make_optimized(cfg: TspConfig) -> Callable[[Context], Generator]:
    def main(ctx: Context) -> Generator:
        topo = ctx.topology
        dist = bound = durations = None
        if cfg.real_data:
            dist = kernel.random_cities(cfg.cities, ctx.machine.seed)
            bound = kernel.greedy_bound(dist)
        else:
            durations = _synthetic_durations(cfg, ctx.machine.seed)

        jobs = _make_jobs(cfg)
        leaders = [topo.cluster_leader(c) for c in topo.clusters()]
        my_leader = topo.cluster_leader(ctx.cluster)
        if ctx.rank in leaders:
            cid = topo.cluster_of(ctx.rank)
            if cfg.imbalanced_start:
                share = list(jobs) if cid == 0 else []
            else:
                share = jobs[cid::topo.num_clusters]
            peers = [l for l in leaders if l != ctx.rank]
            service = ClusterQueueService(share, peers, job_bytes=cfg.job_bytes,
                                          steal_fraction=cfg.steal_fraction,
                                          terminate_on_drain=True)
            ctx.spawn_service(service.body, name="tsp-queue")

        best = bound
        request_id = 0
        while True:
            job = yield from get_cluster_job(ctx, my_leader, request_id)
            request_id += 1
            if job is None:
                break
            length = yield from _work_on(ctx, cfg, job, dist, bound, durations)
            if length is not None and (best is None or length < best):
                best = length

        result = yield from hier_reduce(
            ctx, "tsp-best", 0, 64, best, _min_or_none)
        return result

    return main


def _min_or_none(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _default_config(scale: str) -> TspConfig:
    from ...costmodel import get_scale

    ws = get_scale(scale)
    num_jobs = None if scale == "paper" else ws.tsp_jobs
    return TspConfig(num_jobs=num_jobs)


# Work stealing: victim choice, steal timing and the retry timer all
# depend on message arrival order, so a recorded communication DAG is
# not parameter-stable (repro.whatif falls back to full simulation).
register_app("tsp", "unoptimized", make_unoptimized, _default_config,
             timing_dependent=True)
register_app("tsp", "optimized", make_optimized)
