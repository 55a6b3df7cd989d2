"""Command-line entry point: ``python -m repro <experiment> [args...]``.

Lists and dispatches the experiment harnesses (see EXPERIMENTS.md).
"""

from __future__ import annotations

import importlib
import sys

#: name -> ("module:function", one-line help).  A command's module is
#: imported only when that command runs.
COMMANDS = {
    "table1": ("repro.experiments.table1:main",
               "Table 1: single-cluster speedups/traffic/runtime"),
    "table2": ("repro.experiments.table2:main",
               "Table 2: patterns, optimizations, WAN message cuts"),
    "figure1": ("repro.experiments.figure1:main",
                "Figure 1: inter-cluster traffic scatter"),
    "figure3": ("repro.experiments.figure3:main",
                "Figure 3: relative-speedup panels (the main result)"),
    "figure4": ("repro.experiments.figure4:main",
                "Figure 4: communication-time percentages"),
    "clusters": ("repro.experiments.clusters:main",
                 "Section 5.1: 8x4 vs 4x8 cluster structure"),
    "magpie": ("repro.experiments.magpie_bench:main",
               "Section 6: MagPIe vs MPICH collectives"),
    "variability": ("repro.experiments.variability:main",
                    "Further work: WAN latency/bandwidth jitter"),
    "breakdown": ("repro.experiments.breakdown:main",
                  "Per-rank time breakdown at a grid point"),
    "ablations": ("repro.experiments.ablations:main",
                  "Ablations of each optimization's ingredients"),
    "export": ("repro.experiments.export:main",
               "Export experiment data as CSV/JSON"),
    "algselect": ("repro.experiments.algselect:main",
                  "Collective algorithm selection across the gap"),
    "trace": ("repro.obs.cli:main",
              "Run one app instrumented; write Perfetto trace + report"),
    "profile": ("repro.critpath.cli:main",
                "Critical-path profile: time attribution + WAN blame"),
    "whatif": ("repro.replay.cli:whatif_main",
               "Record-once what-if analysis: Figure-3 grid from the "
               "recorded DAG"),
    "replay": ("repro.replay.cli:main",
               "The same from the top of the ladder: compiled replay "
               "programs"),
    "cache": ("repro.experiments.cache:main",
              "Inspect/clear the on-disk simulation result cache"),
    "bench": ("repro.experiments.bench:main",
              "Performance ledger runs; record/check BENCH_simperf.json"),
    "lint": ("repro.lint.cli:main",
             "Static determinism/protocol lint over app modules"),
    "protograph": ("repro.lint.cli:protograph_main",
                   "Export static communication graphs + stability labels"),
    "chaos": ("repro.faults.cli:main",
              "Run one app under an injected WAN fault plan"),
    "degraded": ("repro.experiments.degraded:main",
                 "Figure 3 re-run under fixed WAN loss rates"),
    "serve": ("repro.serve.cli:serve_main",
              "Run the simulation-as-a-service front end"),
    "submit": ("repro.serve.cli:submit_main",
               "Submit a job to a running serve instance"),
}


def resolve(name: str):
    """The entry function of command ``name``, importing its module."""
    module, function = COMMANDS[name][0].split(":")
    return getattr(importlib.import_module(module), function)


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
    rc = resolve(name)(rest)
    return int(rc) if rc else 0


if __name__ == "__main__":
    sys.exit(main())
