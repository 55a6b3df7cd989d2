"""Command-line entry point: ``python -m repro <experiment> [args...]``.

Lists and dispatches the experiment harnesses (see EXPERIMENTS.md).
"""

from __future__ import annotations

import sys
from functools import partial

from .experiments import (
    ablations,
    algselect,
    bench,
    breakdown,
    clusters,
    degraded,
    export,
    figure1,
    figure3,
    figure4,
    magpie_bench,
    table1,
    table2,
    variability,
)
from .critpath import cli as profile_cli
from .experiments import cache as cache_cli
from .faults import cli as chaos_cli
from .lint import cli as lint_cli
from .obs import cli as trace_cli
from .replay import cli as replay_cli
from .serve import cli as serve_cli

COMMANDS = {
    "table1": (table1.main, "Table 1: single-cluster speedups/traffic/runtime"),
    "table2": (table2.main, "Table 2: patterns, optimizations, WAN message cuts"),
    "figure1": (figure1.main, "Figure 1: inter-cluster traffic scatter"),
    "figure3": (figure3.main, "Figure 3: relative-speedup panels (the main result)"),
    "figure4": (figure4.main, "Figure 4: communication-time percentages"),
    "clusters": (clusters.main, "Section 5.1: 8x4 vs 4x8 cluster structure"),
    "magpie": (magpie_bench.main, "Section 6: MagPIe vs MPICH collectives"),
    "variability": (variability.main, "Further work: WAN latency/bandwidth jitter"),
    "breakdown": (breakdown.main, "Per-rank time breakdown at a grid point"),
    "ablations": (ablations.main, "Ablations of each optimization's ingredients"),
    "export": (export.main, "Export experiment data as CSV/JSON"),
    "algselect": (algselect.main, "Collective algorithm selection across the gap"),
    "trace": (trace_cli.main, "Run one app instrumented; write Perfetto trace + report"),
    "profile": (profile_cli.main, "Critical-path profile: time attribution + WAN blame"),
    "whatif": (partial(replay_cli.main, entry="predict"),
               "Record-once what-if analysis: Figure-3 grid from the recorded DAG"),
    "replay": (replay_cli.main, "The same from the top of the ladder: compiled replay programs"),
    "cache": (cache_cli.main, "Inspect/clear the on-disk simulation result cache"),
    "bench": (bench.main, "Performance ledger runs; record/check BENCH_simperf.json"),
    "lint": (lint_cli.main, "Static determinism/protocol lint over app modules"),
    "protograph": (lint_cli.protograph_main,
                   "Export static communication graphs + stability labels"),
    "chaos": (chaos_cli.main, "Run one app under an injected WAN fault plan"),
    "degraded": (degraded.main, "Figure 3 re-run under fixed WAN loss rates"),
    "serve": (serve_cli.serve_main, "Run the simulation-as-a-service front end"),
    "submit": (serve_cli.submit_main, "Submit a job to a running serve instance"),
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        print("experiments:")
        for name, (_, desc) in COMMANDS.items():
            print(f"  {name:12s} {desc}")
        return 0
    name, rest = argv[0], argv[1:]
    if name not in COMMANDS:
        print(f"unknown experiment {name!r}; run `python -m repro --help`",
              file=sys.stderr)
        return 2
    rc = COMMANDS[name][0](rest)
    return int(rc) if rc else 0


if __name__ == "__main__":
    sys.exit(main())
