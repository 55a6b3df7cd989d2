"""Smoke and schema tests for the ledger (not part of tier-1).

    python -m pytest benchmarks/ledger/test_ledger.py

Every workload runs once at ``--quick`` size, untraced and traced, as a
subprocess — the way the driver runs it — and its last output line is
checked against ``BENCHMARK.json``.  About a minute in all.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import spans as spanlib  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run_ledger(*argv):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *argv],
                          capture_output=True, text=True, timeout=170, cwd=ROOT)


def test_benchmark_json_names_are_unique_and_well_formed():
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in BENCHMARK[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert BENCHMARK["paths"] == ["benchmarks/ledger"]
    assert any(m["name"] == "setup_s" for m in BENCHMARK["end_to_end"])


def test_frozen_reference_is_the_committed_figure3():
    """Regenerating results/ must not move the benchmark's goalposts."""
    with open(os.path.join(HERE, "reference", "figure3_bench_seed0.csv")) as fh:
        frozen = fh.read()
    with open(os.path.join(ROOT, "results", "figure3.csv")) as fh:
        assert fh.read() == frozen


def test_expected_counts_name_known_metrics():
    with open(os.path.join(HERE, "expect.json")) as fh:
        expect = json.load(fh)
    per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
    assert set(expect) == set(WORKLOADS) | {"probes"}
    for scope in expect.values():
        assert set(scope["exact"]) <= per_layer


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_matches_the_schema(workload, trace):
    proc = run_ledger("--workload", workload, "--seed", "5", "--quick",
                      "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr[-2000:]
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        return

    with open(os.path.join(HERE, "out", f"trace-{workload}.json")) as fh:
        trace_file = json.load(fh)
    spans = trace_file["spans"]
    assert spanlib.problems(spans) == []
    root = spans[trace_file["root"]]
    self_s = spanlib.self_times(spans, root["id"])
    assert all(value >= -1e-6 for value in self_s.values())
    assert sum(self_s.values()) == pytest.approx(root["end"] - root["start"],
                                                 rel=1e-6)
    assert all(span["op"] is not None for span in spans if span is not root)


def test_no_process_outlives_a_serve_run():
    """The pool's workers and multiprocessing's resource tracker have all
    ended when run.py returns: as the reaper of orphans, this process
    inherits none."""
    import ctypes
    libc = ctypes.CDLL(None)
    PR_SET_CHILD_SUBREAPER = 36
    libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    try:
        proc = run_ledger("--workload", "serve_cold", "--seed", "5", "--quick")
        assert proc.returncode == 0, proc.stderr[-2000:]
        with pytest.raises(ChildProcessError):      # "no child processes"
            os.waitpid(-1, os.WNOHANG)
    finally:
        libc.prctl(PR_SET_CHILD_SUBREAPER, 0, 0, 0, 0)


def test_missing_source_tree_exits_nonzero_without_a_result(tmp_path):
    """In a directory with only BENCHMARK.json and the benchmark itself."""
    import shutil
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "fig3_sim",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_span_problems_are_reported():
    good = [{"id": 0, "name": "ledger.repetition", "op": None, "parent": None,
             "start": 0.0, "end": 1.0},
            {"id": 1, "name": "sim.run", "op": "a", "parent": 0,
             "start": 0.1, "end": 0.6}]
    assert spanlib.problems(good) == []
    assert spanlib.self_times(good, 0) == pytest.approx(
        {"ledger": 0.5, "sim": 0.5})
    outside = [good[0], dict(good[1], end=1.5)]
    assert any("outside parent" in p for p in spanlib.problems(outside))
    overlapping = good + [dict(good[1], id=2, start=0.2, end=0.9)]
    assert any("negative self time" in p
               for p in spanlib.problems(overlapping))


def write_set(path, workload, wall_values):
    with open(path, "w") as fh:
        for value in wall_values:
            fh.write(json.dumps({
                "workload": workload, "trace": 0,
                "metrics": {"wall_s": {"value": value, "unit": "s"}}}) + "\n")
        fh.write(json.dumps({"workload": workload, "trace": 1, "metrics": {
            "sim.events": {"value": 1, "unit": "count"}}}) + "\n")


def test_compare_verdicts(tmp_path, capsys):
    steady = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert compare.judge(steady, [v * 1.05 for v in steady], 0.10,
                         True)["verdict"] == "ok"
    assert compare.judge(steady, [v * 1.20 for v in steady], 0.10,
                         True)["verdict"] == "worse"
    noisy = [0.8, 1.0, 1.3, 0.9, 1.2]
    assert compare.judge(noisy, [v * 1.20 for v in noisy], 0.10,
                         True)["verdict"] == "unresolved"
    # every run of B better than every run of A resolves a noisy pair
    assert compare.judge(noisy, [v * 0.5 for v in noisy], 0.10,
                         True)["verdict"] == "ok"
    assert compare.judge([100.0], [80.0], 0.10, False)["verdict"] == "worse"

    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_set(a, "fig3_sim", steady)
    write_set(b, "fig3_sim", [v * 1.50 for v in steady])
    assert compare.compare(BENCHMARK, str(a), str(a)) == 0
    assert compare.compare(BENCHMARK, str(a), str(b)) == 1
    table = capsys.readouterr().out
    assert "worse" in table and "missing from A" in table
