"""Exit-code matrix for ``repro bench``: the ledger's front door.

``bench.run_ledger`` is the one seam that starts ledger processes; here
it returns canned run records, so every row below runs the real
``main`` — trajectory file, ``ledger`` block, the unmodified
``benchmarks/ledger/run.py --compare`` — in well under a second.
"""

import json
import pathlib
import sys

import pytest

from repro.experiments import bench

REPO = pathlib.Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def records(scale=1.0, workloads=WORKLOADS):
    """``RUNS`` correct untraced records a workload, every end-to-end
    metric at ``scale`` x a nominal value with a 1 % run-to-run spread."""
    return [{"workload": workload, "seed": seed, "trace": 0, "correct": True,
             "notes": [], "git_sha": "0" * 40,
             "host": {"nproc": 2, "calibration_ref_ms": 1.0,
                      "calibration_before_ms": 1.0 + seed / 10,
                      "calibration_after_ms": 1.2},
             "metrics": {m["name"]: {"value": scale * (100 + seed),
                                     "unit": m["unit"]}
                         for m in BENCHMARK["end_to_end"]}}
            for workload in workloads for seed in range(1, bench.RUNS + 1)]


@pytest.fixture
def bench_main(monkeypatch, tmp_path):
    monkeypatch.chdir(REPO)     # BENCHMARK.json and the ledger are found from here

    def run(canned, *args):
        monkeypatch.setattr(bench, "run_ledger", lambda benchmark: canned)
        return bench.main([str(tmp_path / "traj.json"), *args])
    return run


def test_bench_check_without_baseline_exits_two(bench_main, tmp_path):
    assert bench_main(records(), "--check") == 2
    # entries that predate the ledger are history, not a baseline
    (tmp_path / "traj.json").write_text(json.dumps(
        {"entries": [{"label": "old", "metrics": {"messages_per_s": 1.0}}]}))
    assert bench_main(records(), "--check") == 2


def test_bench_record_then_check_within_tolerance_exits_zero(
        bench_main, tmp_path):
    assert bench_main(records(), "--label", "seed") == 0
    entry = json.loads((tmp_path / "traj.json").read_text())["entries"][-1]
    assert entry["label"] == "seed" and entry["runs"] == bench.RUNS
    assert entry["git_sha"] == "0" * 40
    assert entry["host"] == {"nproc": 2, "calibration_ref_ms": 1.0,
                             "calibration_ms_median": 1.3}
    assert list(entry["ledger"]) == WORKLOADS
    for row in entry["ledger"].values():        # medians of seeds 1..5
        assert row == {m["name"]: 103.0 for m in BENCHMARK["end_to_end"]}
    assert bench_main(records(), "--check") == 0


def test_bench_check_regression_exits_one(bench_main, capfd):
    assert bench_main(records()) == 0
    assert bench_main(records(scale=1.3), "--check") == 1
    table = capfd.readouterr().out
    assert table.count("worse\n") == \
        len(WORKLOADS) * len(BENCHMARK["end_to_end"])


def test_bench_improvement_is_not_a_regression(bench_main):
    assert bench_main(records(scale=1.3)) == 0
    assert bench_main(records(), "--check") == 0


def test_bench_incorrect_run_exits_one(bench_main, tmp_path, capfd):
    canned = records()
    canned[7].update(correct=False, notes=["sim.events = 1, frozen value 2"])
    assert bench_main(records()) == 0
    assert bench_main(canned, "--check") == 1
    captured = capfd.readouterr()
    assert "worse\n" not in captured.out        # every row reads ok ...
    assert "frozen value 2" in captured.err     # ... the run does not
    # and such runs are not recorded either
    before = (tmp_path / "traj.json").read_text()
    assert bench_main(canned) == 1
    assert (tmp_path / "traj.json").read_text() == before


def test_bench_missing_workload_exits_one(bench_main, capfd):
    assert bench_main(records()) == 0
    assert bench_main(records(workloads=WORKLOADS[1:]), "--check") == 1
    assert f"{WORKLOADS[0]}: 0 of {bench.RUNS} runs" in capfd.readouterr().err


def test_run_ledger_starts_every_workload_and_seed_untraced(tmp_path):
    """The seam itself, against a stand-in for the ledger's command that
    appends its own arguments as the run record."""
    script = tmp_path / "fake_ledger.py"
    script.write_text(
        "import json, sys\n"
        "args = dict(zip(sys.argv[1::2], sys.argv[2::2]))\n"
        "with open(args.pop('--append'), 'a') as fh:\n"
        "    fh.write(json.dumps(args) + '\\n')\n")
    ran = bench.run_ledger({"command": [sys.executable, str(script)],
                            "workloads": [{"name": "a"}, {"name": "b"}]})
    assert ran == [{"--workload": name, "--seed": str(seed), "--trace": "0"}
                   for name in "ab" for seed in range(1, bench.RUNS + 1)]
