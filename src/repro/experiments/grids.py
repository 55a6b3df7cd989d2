"""The paper's experimental grids (Section 5).

Figure 3 sweeps inter-cluster bandwidth over {6.3, 2.6, 0.95, 0.3, 0.1,
0.03} MByte/s and one-way latency over {0.5, 1.3, 3.3, 10, 30, 100, 300}
ms on 4 clusters of 8 processors, with an all-Myrinet 32-processor run as
the 100% baseline.  (The paper quotes 0.4 ms as the lowest latency in
Section 3.2 and 0.5 ms in the figures; we follow the figures.)
"""

from __future__ import annotations

from typing import Tuple

from ..apps.base import VARIANTS
from ..network.linkspec import myrinet, wan
from ..network.topology import Topology, single_cluster

#: Figure 3 x-axis, MByte/s per WAN link.
BANDWIDTHS_MBYTE_S: Tuple[float, ...] = (6.3, 2.6, 0.95, 0.3, 0.1, 0.03)

#: Figure 3 series, one-way WAN latency in ms.
LATENCIES_MS: Tuple[float, ...] = (0.5, 1.3, 3.3, 10.0, 30.0, 100.0, 300.0)

#: The paper's system shape.
NUM_CLUSTERS = 4
CLUSTER_SIZE = 8
NUM_RANKS = NUM_CLUSTERS * CLUSTER_SIZE

#: Figure 1 / Table-ish reference WAN point (6 MByte/s, 0.5 ms).
FIGURE1_BANDWIDTH = 6.0
FIGURE1_LATENCY_MS = 0.5

#: Figure 4 fixed points.
FIGURE4_LATENCY_MS = 3.3          # left panel: sweep bandwidth at 3.3 ms
FIGURE4_BANDWIDTH = 0.9           # right panel: sweep latency at 0.9 MByte/s

#: The six applications, in the paper's Table 1 order.
APPS: Tuple[str, ...] = ("water", "barnes", "tsp", "asp", "awari", "fft")

#: Applications with a distinct optimized variant (FFT has none).
OPTIMIZED_APPS: Tuple[str, ...] = ("water", "barnes", "tsp", "asp", "awari")

# The FFT rule.  The app registry runs one driver under both names, so
# every front end asks here which variants are distinct.
def variants(app: str) -> Tuple[str, ...]:
    """The distinct variants ``app`` has."""
    return VARIANTS if app in OPTIMIZED_APPS else VARIANTS[:1]


def paper_variant(app: str) -> str:
    """The variant the paper analyses: the optimized one where it exists."""
    return variants(app)[-1]


def resolve_variant(app: str, variant: str) -> str:
    """What a requested variant runs as: one ``app`` lacks is the paper's
    (unknown names pass through, for the app registry to reject)."""
    lacking = variant in VARIANTS and variant not in variants(app)
    return paper_variant(app) if lacking else variant


def multi_cluster(bandwidth_mbyte_s: float, latency_ms: float,
                  clusters: int = NUM_CLUSTERS,
                  cluster_size: int = CLUSTER_SIZE,
                  wan_shape: str = "full") -> Topology:
    """A Figure-3 grid point topology (optionally star/ring shaped)."""
    return Topology(tuple([cluster_size] * clusters), myrinet(),
                    wan(latency_ms, bandwidth_mbyte_s), wan_shape=wan_shape)


def baseline(num_ranks: int = NUM_RANKS) -> Topology:
    """The all-Myrinet machine the speedups are measured against."""
    return single_cluster(num_ranks)
