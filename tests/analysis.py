"""Closed-form first-order performance models, for validating the simulator.

Each function predicts a multi-cluster runtime from the LogP-style
parameters of the topology and an application config, using nothing but
arithmetic — no simulation.  The tests in ``tests/test_analysis.py``
assert that the simulator agrees with these predictions in the regimes
where the closed forms are valid (they deliberately ignore second-order
effects like queueing skew and imbalance, so agreement is to within tens
of percent, not exact).

This is the repository's independent check that the simulator's numbers
*mean* something: two entirely different calculations of the same
quantity must coincide where both are applicable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.network.topology import Topology


def wan_rtt(topo: Topology) -> float:
    """One request/reply round trip over the WAN (small messages)."""
    one_way = (topo.local.one_way_time(64)
               + topo.gateway_overhead * 2
               + topo.wide.one_way_time(64)
               + topo.wide.send_overhead + topo.wide.recv_overhead)
    return 2 * one_way


def local_rtt(topo: Topology) -> float:
    """One intra-cluster round trip (small messages)."""
    one_way = (topo.local.one_way_time(64)
               + topo.local.send_overhead + topo.local.recv_overhead)
    return 2 * one_way


def remote_fraction(topo: Topology) -> float:
    """Fraction of uniformly chosen partners that live in another cluster
    (for the symmetric C x m machine: (C-1)/C)."""
    total = topo.num_ranks
    same = total / topo.num_clusters
    return (total - same) / total


# ----------------------------------------------------------------------
# Applications (unoptimized variants, where the closed form is clean)
# ----------------------------------------------------------------------
def predict_asp_unoptimized(n: int, sec_per_cell: float, row_bytes: int,
                            topo: Topology) -> float:
    """ASP with a fixed sequencer: every row pays its owner's sequencer
    round trip, plus the per-row relaxation compute; row broadcasts
    pipeline behind the compute when bandwidth suffices."""
    p = topo.num_ranks
    rows_per_rank = n / p
    per_row_compute = rows_per_rank * n * sec_per_cell
    seq_cost = remote_fraction(topo) * wan_rtt(topo) \
        + (1 - remote_fraction(topo)) * local_rtt(topo)
    per_row_bandwidth = row_bytes / topo.wide.bandwidth  # one copy per link
    return n * (per_row_compute + seq_cost + max(
        0.0, per_row_bandwidth - per_row_compute))


def predict_tsp_central(num_jobs: int, mean_job_sec: float,
                        topo: Topology) -> float:
    """Central queue under self-scheduling.

    Each worker's cycle is job-compute plus its *own* fetch round trip,
    so workers co-located with the queue process disproportionately many
    jobs.  The aggregate throughput is the sum of per-worker rates; the
    runtime is the job count over that throughput plus one trailing
    remote cycle (the slowest worker finishing its last job).
    """
    cluster_size = topo.num_ranks // topo.num_clusters
    local_workers = cluster_size
    remote_workers = topo.num_ranks - cluster_size
    rate = (local_workers / (mean_job_sec + local_rtt(topo))
            + remote_workers / (mean_job_sec + wan_rtt(topo)))
    return num_jobs / rate + mean_job_sec + wan_rtt(topo)


def predict_fft(points: int, sec_per_point_stage: float, element_bytes: int,
                topo: Topology) -> float:
    """Three all-to-all transposes, bandwidth-bound on the WAN links:
    each ordered cluster pair carries (points/C^2) elements per transpose."""
    import math

    p = topo.num_ranks
    c = topo.num_clusters
    log_n = max(1, int(math.log2(points)))
    compute = 2 * (points / p) * log_n * sec_per_point_stage
    per_link_bytes = (points / (c * c)) * element_bytes
    wan_time = 3 * per_link_bytes / topo.wide.bandwidth
    return compute + wan_time + 3 * topo.wide.latency


def predict_water_optimized_floor(molecules: int, iterations: int,
                                  sec_per_pair: float, pos_bytes: int,
                                  topo: Topology) -> float:
    """A *lower bound* for optimized Water: per-iteration pair compute
    plus one WAN crossing of each remote cluster's position data per
    link (coordinator caching's whole point)."""
    p = topo.num_ranks
    per_rank = molecules / p
    pairs = per_rank * molecules / 2
    compute = pairs * sec_per_pair
    cluster_size = p // topo.num_clusters
    # Positions of one cluster's ranks cross each outgoing link once, in
    # both the fetch and the reduced-update direction.
    per_link_bytes = 2 * cluster_size * per_rank * pos_bytes
    wan_time = per_link_bytes / topo.wide.bandwidth
    # Communication overlaps compute only partially; the floor is whichever
    # resource is the bottleneck each iteration.
    return iterations * max(compute, wan_time)


def gateway_bound(messages_per_gateway: int, topo: Topology) -> float:
    """Minimum time for a message flood through one gateway CPU."""
    return messages_per_gateway * topo.gateway_overhead
