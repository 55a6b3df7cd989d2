"""Experiment harnesses regenerating every table and figure of the paper.

Each module is one ``python -m repro <name>`` command (``magpie_bench``
is ``magpie``):

- ``table1``       — Table 1 single-cluster speedups/traffic/runtimes
- ``table2``       — Table 2 patterns/optimizations + WAN message cuts
- ``figure1``      — Figure 1 inter-cluster traffic scatter
- ``figure3``      — Figure 3 relative-speedup panels (all 12)
- ``figure4``      — Figure 4 communication-time percentages
- ``clusters``     — Section 5.1's 8x4 vs 4x8 cluster-structure result
  (with ``--wan-shape star|ring`` for the topology prediction)
- ``magpie_bench`` — Section 6's MagPIe vs MPICH collective comparison

Extensions beyond the paper:

- ``variability``  — WAN latency/bandwidth jitter (the paper's further work)
- ``ablations``    — each optimization decomposed into its ingredients
- ``breakdown``    — per-rank compute/blocked/overhead shares
- ``algselect``    — collective algorithm tuning table across the gap
- ``export``       — CSV/JSON datasets for external plotting
"""

from . import grids
from .runner import GridPoint, SpeedupGrid, Sweeper

__all__ = ["grids", "GridPoint", "SpeedupGrid", "Sweeper"]
