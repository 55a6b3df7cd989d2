"""Ablation studies of the design choices behind each optimization.

Four sweeps, each isolating one knob the paper's analysis hinges on:

- ``awari-combining``  — per-destination and relay combining thresholds.
  Reproduces the paper's observation that combining masks per-message
  overhead *but* "too much message combining results in load imbalance"
  (the relay curve turns over once batches are held until stage end).
- ``barnes-decompose`` — splits the Barnes-Hut optimization into its two
  ingredients (per-cluster combining via gateways; relaxed barriers) and
  measures each alone.
- ``tsp-stealing``     — steal fraction and initial job placement: with
  all jobs born in one cluster, stealing is what rescues the speedup.
- ``water-coordinator``— coordinator placement: spreading the per-owner
  coordinator role across cluster members versus concentrating it on the
  leader rank.

Run: ``python -m repro.experiments.ablations [which ...]``
"""

from __future__ import annotations

import argparse
import dataclasses
from typing import List, Optional

from ..apps import default_config, run_app
from . import grids
from .report import render_table
from .runner import relative_speedup_pct

POINT = dict(bandwidth=6.3, latency_ms=3.3)


def _relative(app: str, variant: str, config, bandwidth: float,
              latency_ms: float, seed: int = 0) -> float:
    base = run_app(app, variant, grids.baseline(), config=config, seed=seed)
    topo = grids.multi_cluster(bandwidth, latency_ms)
    multi = run_app(app, variant, topo, config=config, seed=seed)
    return relative_speedup_pct(base.runtime, multi.runtime)


# ----------------------------------------------------------------------
def awari_combining(scale: str = "bench") -> List[List[str]]:
    cfg0 = default_config("awari", scale)
    rows = []
    for cc in (1, 4, 8, 32, 128):
        cfg = dataclasses.replace(cfg0, combine_count=cc)
        rel = _relative("awari", "unoptimized", cfg, **POINT)
        rows.append(["per-destination", str(cc), f"{rel:5.1f}%"])
    for rc in (8, 64, 256, 1024, 8192):
        cfg = dataclasses.replace(cfg0, relay_combine_count=rc)
        rel = _relative("awari", "optimized", cfg, **POINT)
        rows.append(["relay (jumbo)", str(rc), f"{rel:5.1f}%"])
    return rows


def barnes_decompose(scale: str = "bench") -> List[List[str]]:
    cfg0 = default_config("barnes", scale)
    settings = [
        ("neither (original)", "unoptimized", dict()),
        ("relaxed barriers only", "unoptimized", dict(strict_barriers=False)),
        ("cluster combining only", "optimized", dict(strict_barriers=True)),
        ("both (optimized)", "optimized", dict()),
    ]
    rows = []
    for label, variant, overrides in settings:
        cfg = dataclasses.replace(cfg0, **overrides)
        # Show both a latency-bound and a bandwidth-bound operating point.
        at_lat = _relative("barnes", variant, cfg, 6.3, 100.0)
        at_bw = _relative("barnes", variant, cfg, 0.95, 0.5)
        rows.append([label, f"{at_lat:5.1f}%", f"{at_bw:5.1f}%"])
    return rows


def tsp_stealing(scale: str = "bench") -> List[List[str]]:
    """All jobs born in cluster 0: without stealing, 3 of 4 clusters idle."""
    cfg0 = default_config("tsp", scale)
    rows = []
    for label, overrides in (
        ("balanced start, stealing", dict()),
        ("imbalanced start, no stealing",
         dict(imbalanced_start=True, steal_fraction=0.0)),
        ("imbalanced start, steal 1/4", dict(imbalanced_start=True,
                                             steal_fraction=0.25)),
        ("imbalanced start, steal 1/2", dict(imbalanced_start=True,
                                             steal_fraction=0.5)),
    ):
        cfg = dataclasses.replace(cfg0, **overrides)
        rel = _relative("tsp", "optimized", cfg, 6.3, 3.3)
        rows.append([label, f"{rel:5.1f}%"])
    return rows


def water_coordinator(scale: str = "bench") -> List[List[str]]:
    import repro.apps.water.parallel as wp

    cfg = default_config("water", scale)
    rows = []
    original = wp._coordinator_for

    def leader_only(ctx, q, cluster):
        return ctx.topology.cluster_leader(cluster)

    for label, fn in (("spread over members", original),
                      ("all on cluster leader", leader_only)):
        wp._coordinator_for = fn
        try:
            rel = _relative("water", "optimized", cfg, 0.3, 3.3)
        finally:
            wp._coordinator_for = original
        rows.append([label, f"{rel:5.1f}%"])
    return rows


ABLATIONS = {
    "awari-combining": (awari_combining, ["layer", "threshold", "rel speedup"]),
    "barnes-decompose": (barnes_decompose,
                         ["configuration", "@100ms/6.3MBs", "@0.5ms/0.95MBs"]),
    "tsp-stealing": (tsp_stealing, ["setting", "rel speedup @3.3ms"]),
    "water-coordinator": (water_coordinator, ["placement", "rel speedup"]),
}


def main(argv: Optional[list] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("which", nargs="*", default=list(ABLATIONS))
    parser.add_argument("--scale", default="bench", choices=["paper", "bench"])
    args = parser.parse_args(argv)
    for name in args.which:
        fn, headers = ABLATIONS[name]
        print(render_table(headers, fn(args.scale), title=f"Ablation: {name}"))
        print()


if __name__ == "__main__":
    main()
