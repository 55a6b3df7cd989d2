"""Table 2 benchmark: every optimization cuts WAN messages for its
communication pattern (FFT, with no optimization, is unchanged)."""

import pytest

from repro.experiments.table2 import wan_messages


@pytest.mark.parametrize("app,min_cut", [
    ("water", 2.0),    # coordinator caching + reduction tree
    ("barnes", 6.0),   # per-cluster combining: 24 -> 3 per sender
    ("tsp", 10.0),     # per-cluster queues eliminate most WAN RPCs
    ("asp", 1.2),      # only the sequencer RPCs disappear; rows still cross
    ("awari", 3.0),    # relay-level combining
])
def test_optimizations_cut_wan_messages(app, min_cut):
    unopt, opt = wan_messages(app, "unoptimized"), wan_messages(app, "optimized")
    assert unopt / opt >= min_cut


def test_fft_has_no_optimization():
    unopt, opt = wan_messages("fft", "unoptimized"), wan_messages("fft", "optimized")
    assert unopt == opt
