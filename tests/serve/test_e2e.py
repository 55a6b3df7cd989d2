"""End-to-end: real server, real process pool, real sockets.

The acceptance path of the service: a small Water sweep submitted over
HTTP streams its points incrementally, the merged grid is byte-identical
to a direct ``Sweeper(workers=2)`` run, and resubmitting the identical
job is served entirely from the shared on-disk cache with zero worker
dispatches.
"""

import pytest

from repro.experiments.cache import SimCache
from repro.experiments.runner import Sweeper
from repro.serve.client import merge_grid
from repro.serve.jobs import TERMINAL

SPEC = {"app": "water", "bandwidths": [6.3, 0.95], "latencies": [0.5, 5.0]}


@pytest.fixture(scope="module")
def first_run(harness):
    """Submit the module's sweep once; all tests share the stream."""
    job = harness.client.submit(SPEC)
    assert job["state"] in ("queued", "running")
    records = []
    seen_live = None
    for record in harness.client.stream(job["id"]):
        records.append(record)
        if record["kind"] == "baseline":
            # The stream is live: the job is still mid-flight when its
            # first records arrive, not replayed after the fact.
            seen_live = harness.client.status(job["id"])["state"]
    return job, records, seen_live


def test_stream_is_incremental(first_run):
    _job, records, seen_live = first_run
    assert seen_live is not None and seen_live not in TERMINAL
    kinds = [record["kind"] for record in records]
    assert kinds[0] == "job"
    assert kinds[1] == "baseline"
    assert kinds.count("point") == 4
    assert kinds[-1] == "end"


def test_end_record_accounts_the_job(first_run):
    job, records, _ = first_run
    end = records[-1]
    assert end["state"] == "done"
    assert end["points_total"] == end["points_done"] == 5
    assert end["failed_points"] == 0
    status = {record["kind"] for record in records}
    assert status == {"job", "baseline", "point", "end"}
    assert records[0]["spec"]["engine"]      # content hash pins the engine


def test_merged_grid_is_byte_identical_to_direct_sweeper(first_run, harness,
                                                         tmp_path):
    _job, records, _ = first_run
    grid = merge_grid(records)
    direct = Sweeper(workers=2, cache=SimCache(str(tmp_path / "direct"))) \
        .speedup_grid("water", "optimized", bandwidths=SPEC["bandwidths"],
                      latencies=SPEC["latencies"])
    assert repr(grid) == repr(direct)
    assert grid.points == direct.points
    assert grid.baseline_runtime == direct.baseline_runtime
    # And the service's cache now holds the exact Sweeper keys, so a
    # direct sweep pointed at the service cache is a pure cache read.
    resweep = Sweeper(cache=harness.cache).speedup_grid(
        "water", "optimized", bandwidths=SPEC["bandwidths"],
        latencies=SPEC["latencies"])
    assert repr(resweep) == repr(direct)


def test_identical_resubmission_is_pure_cache(first_run, harness):
    _job, records, _ = first_run
    job2 = harness.client.submit(SPEC)
    records2 = list(harness.client.stream(job2["id"]))
    end = records2[-1]
    assert end["state"] == "done"
    assert end["dispatched"] == 0
    assert end["hit_rate"] >= 0.99           # exactly 1.0 here
    assert all(record["cached"] for record in records2
               if record["kind"] in ("baseline", "point"))
    runtime_of = lambda recs: {  # noqa: E731
        (r["bandwidth_mbyte_s"], r["latency_ms"]): r["runtime"]
        for r in recs if r["kind"] == "point"}
    assert runtime_of(records2) == runtime_of(records)
    assert repr(merge_grid(records2)) == repr(merge_grid(records))


def test_submit_cli_prints_the_panel_every_front_end_prints(first_run, harness,
                                                            capsys):
    from repro.experiments.figure3 import render_panel
    from repro.serve.cli import submit_main

    _job, records, _ = first_run
    assert submit_main(["water", "--connect", harness.address,
                        "--bandwidths", "6.3,0.95",
                        "--latencies", "0.5,5.0"]) == 0
    out = capsys.readouterr().out
    assert out.endswith(render_panel(merge_grid(records)) + "\n")
    assert "latency \\ bw MByte/s | 6.3" in out and "5 ms" in out


def test_job_listing_and_status(first_run, harness):
    job, _, _ = first_run
    listed = {entry["id"]: entry for entry in harness.client.jobs()}
    assert job["id"] in listed
    assert listed[job["id"]]["state"] == "done"
    status = harness.client.status(job["id"])
    assert status["content_hash"] == job["content_hash"]
    assert status["state"] == "done"


def test_chaos_and_profile_kinds_over_http(first_run, harness):
    chaos = harness.client.submit({
        "app": "water", "kind": "chaos", "faults": {"loss": 0.05},
        "bandwidths": [6.3], "latencies": [5.0]})
    records = list(harness.client.stream(chaos["id"]))
    end = records[-1]
    point = next(r for r in records if r["kind"] == "point")
    assert isinstance(point["ok"], bool)
    if point["ok"]:
        assert end["state"] == "done" and point["runtime"] > 0
    else:
        assert end["state"] == "failed" and point["error"]

    profile = harness.client.submit({
        "app": "water", "kind": "profile",
        "bandwidths": [6.3], "latencies": [5.0]})
    records = list(harness.client.stream(profile["id"]))
    assert records[-1]["state"] == "done"
    point = next(r for r in records if r["kind"] == "point")
    assert point["runtime"] > 0
    assert point["dominant_bucket"]
    assert isinstance(point["buckets"], dict) and point["buckets"]

    metrics = harness.client.metrics()
    assert metrics["serve.jobs.submitted"] >= 3
    assert metrics["serve.points.dispatched"] >= 1
