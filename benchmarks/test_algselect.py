"""Algorithm-selection benchmark: the tuning table's stable cells."""

import pytest

from repro.experiments.algselect import winners


def test_selection_table():
    best = winners(8192)
    # Cluster-aware broadcast/allreduce win everywhere.
    for point in ("single cluster", "WAN 3.3ms/6MBs", "WAN 30ms/0.5MBs"):
        assert best[("bcast", point)] == "MagPIe"
        assert best[("allreduce", point)] == "MagPIe"
    # Allgather is the honest exception: on the WAN the bandwidth-optimal
    # ring beats MagPIe's gather-then-broadcast (which ships the full
    # vector twice) — algorithm choice genuinely depends on the pattern.
    assert best[("allgather", "WAN 30ms/0.5MBs")] == "ring"
