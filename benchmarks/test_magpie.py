"""Section 6 benchmark: MagPIe collectives vs. MPICH-like flat ones."""

import pytest

from repro.experiments.magpie_bench import compare_all, latency_sweep


def test_magpie_vs_mpich_at_paper_operating_point():
    """10 ms / 1 MByte/s: MagPIe wins the latency-sensitive operations
    (several-fold on the broadcast/reduce family), never loses badly."""
    rows = compare_all(1024)
    ratios = {name: ratio for name, _, _, ratio in rows}
    assert ratios["bcast"] > 1.5
    assert ratios["allgather"] > 2.5
    assert ratios["allreduce"] > 1.5
    assert ratios["barrier"] > 1.0
    # The paper's 'up to 10 times faster' is the best case across ops and
    # latencies; here the best op already exceeds 2.5x (see the latency
    # sweep for growth) and nothing regresses below ~0.85x.
    assert max(ratios.values()) > 2.5
    assert min(ratios.values()) > 0.85


def test_magpie_absolute_advantage_grows_with_latency():
    sweep = latency_sweep("bcast")
    savings = [tf - tm for _, tf, tm in sweep]
    assert savings == sorted(savings)  # monotone in latency
    assert all(s > 0 for s in savings)
