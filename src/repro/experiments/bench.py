"""The performance trajectory: ``python -m repro bench``.

A front door to the performance ledger (``benchmarks/ledger/``, declared
in ``BENCHMARK.json``).  It measures nothing itself: it runs every
declared workload ``RUNS`` times through the ledger's own command —
untraced, one seed a run, for the declared run length — and records or
checks what came back.  From the repository root::

    python -m repro bench [--label "..."]   # run + append an entry
    python -m repro bench --check           # run + compare with the last
                                            # committed entry (CI)

An entry of ``BENCH_simperf.json`` holds each workload's median of every
end-to-end metric (calibrated, see the ledger's README), the commit and
the host.  ``--check`` hands the last entry and the fresh runs to the
ledger's ``--compare`` (``ok`` / ``worse`` / ``unresolved`` per row) and
exits with its status — or with 1 when a run is missing or failed one of
the ledger's correctness checks.  docs/performance.md has the details.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

#: Trajectory file, relative to the working directory (the repo root in CI).
DEFAULT_PATH = "BENCH_simperf.json"

#: Runs of each workload (seeds 1..RUNS) behind one entry or one check.
RUNS = 5


def ledger(benchmark: dict, *args: str) -> int:
    """One process of the ledger's command, on this interpreter."""
    # Harness code: no simulated process is anywhere near this call.
    return subprocess.run(  # lint: ignore[blocking-call]
        [sys.executable, *benchmark["command"][1:], *args]).returncode


def run_ledger(benchmark: dict) -> list[dict]:
    """Every workload x ``RUNS`` seeds, a process each; returns the run
    records (a run that died leaves none)."""
    with tempfile.NamedTemporaryFile("r", suffix=".jsonl") as result_set:
        for workload in benchmark["workloads"]:
            for seed in range(1, RUNS + 1):
                ledger(benchmark, "--workload", workload["name"],
                       "--seed", str(seed), "--trace", "0",
                       "--append", result_set.name)
        return [json.loads(line) for line in result_set]


def compare(benchmark: dict, baseline: dict, records: list[dict]) -> int:
    """The ledger's ``--compare`` of a committed ``ledger`` block (as one
    record a workload) with fresh run records; returns its exit status."""
    committed = [{"workload": workload, "trace": 0, "metrics":
                  {name: {"value": value} for name, value in row.items()}}
                 for workload, row in baseline.items()]
    with tempfile.TemporaryDirectory(prefix="bench_") as tmp:
        paths = [os.path.join(tmp, name) for name in ("A.jsonl", "B.jsonl")]
        for path, result_set in zip(paths, (committed, records)):
            with open(path, "w") as fh:
                fh.writelines(json.dumps(r) + "\n" for r in result_set)
        return ledger(benchmark, "--compare", *paths)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro bench",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("path", nargs="?", default=DEFAULT_PATH)
    parser.add_argument("--label", default="local run")
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)

    with open("BENCHMARK.json") as fh:
        benchmark = json.load(fh)
    trajectory = {"entries": []}
    if os.path.exists(args.path):
        with open(args.path) as fh:
            trajectory = json.load(fh)
    baselines = [e["ledger"] for e in trajectory["entries"] if "ledger" in e]
    if args.check and not baselines:
        print(f"no entry with a `ledger` block in {args.path}; "
              "nothing to check against", file=sys.stderr)
        return 2

    records = run_ledger(benchmark)
    runs = {w["name"]: [r for r in records if r["workload"] == w["name"]]
            for w in benchmark["workloads"]}
    broken = [f"{name}: {len(rows)} of {RUNS} runs"
              for name, rows in runs.items() if len(rows) < RUNS]
    broken += [f"{r['workload']} seed {r['seed']}: not correct {r['notes']}"
               for r in records if not r["correct"]]
    for line in broken:
        print("bench: " + line, file=sys.stderr)
    if args.check:
        return compare(benchmark, baselines[-1], records) or int(bool(broken))
    if broken:
        return 1

    host = {key: value for key, value in records[0]["host"].items()
            if not key.endswith(("_before_ms", "_after_ms"))}   # per-run
    host["calibration_ms_median"] = round(statistics.median(
        r["host"]["calibration_before_ms"] for r in records), 3)
    trajectory["entries"].append({
        "label": args.label, "git_sha": records[0]["git_sha"],
        "ledger": {name: {metric: round(statistics.median(
                       r["metrics"][metric]["value"] for r in rows), 4)
                          for metric in rows[0]["metrics"]}
                   for name, rows in runs.items()},
        "runs": RUNS, "host": host})
    with open(args.path, "w") as fh:
        json.dump(trajectory, fh, indent=1)
        fh.write("\n")
    print(f"appended entry {len(trajectory['entries'])} to {args.path}")
    return 0
