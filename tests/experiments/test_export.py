"""Tests for the CSV/JSON data exporter."""

import csv
import io
import json

import pytest

from repro.experiments import grids
from repro.experiments.export import (
    DATASETS,
    figure3_rows,
    figure4_rows,
    main,
    to_csv,
    to_json,
    traffic_rows,
)


def test_figure3_rows_cover_requested_grid():
    rows = figure3_rows(apps=["tsp"])
    # unopt + opt, 6 bandwidths x 7 latencies each.
    assert len(rows) == 2 * 6 * 7
    variants = {r["variant"] for r in rows}
    assert variants == {"unoptimized", "optimized"}
    for row in rows:
        assert 0 < row["relative_speedup_pct"] <= 110
        assert row["bandwidth_mbyte_s"] in grids.BANDWIDTHS_MBYTE_S
        assert row["latency_ms"] in grids.LATENCIES_MS


def test_figure4_rows_have_both_panels():
    rows = figure4_rows()
    panels = {r["panel"] for r in rows}
    assert panels == {"bandwidth", "latency"}
    per_app = len(grids.BANDWIDTHS_MBYTE_S) + len(grids.LATENCIES_MS)
    assert len(rows) == per_app * len(grids.APPS)


def test_to_csv_round_trips():
    rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
    text = to_csv(rows)
    parsed = list(csv.DictReader(io.StringIO(text)))
    assert parsed == [{"a": "1", "b": "x"}, {"a": "2", "b": "y"}]
    assert to_csv([]) == ""


def test_to_json_round_trips():
    rows = [{"a": 1.5}]
    assert json.loads(to_json(rows)) == rows


def test_main_writes_file(tmp_path, capsys):
    out = tmp_path / "tsp.csv"
    main(["figure3", "--apps", "tsp", "--out", str(out)])
    text = out.read_text()
    assert text.startswith("app,variant,")
    assert text.count("\n") == 2 * 6 * 7 + 1  # header + rows


def test_main_stdout_json(capsys):
    main(["figure4", "--format", "json"])
    rows = json.loads(capsys.readouterr().out)
    assert rows and "communication_time_pct" in rows[0]


def test_all_datasets_registered():
    assert set(DATASETS) == {"table1", "figure1", "figure3", "figure4",
                             "traffic"}


def test_traffic_rows_pair_matrix():
    rows = traffic_rows(apps=["asp"])
    assert rows, "asp crosses the WAN at the Figure 1 point"
    for row in rows:
        assert row["app"] == "asp"
        assert row["src_cluster"] != row["dst_cluster"]
        assert row["messages"] > 0 and row["mbytes"] > 0
    # Directional pairs are unique and sorted.
    pairs = [(r["src_cluster"], r["dst_cluster"]) for r in rows]
    assert pairs == sorted(set(pairs))
    # Clean runs still carry the fault counter columns, all zero.
    for row in rows:
        assert row["fault_drops"] == 0
        assert row["retransmits"] == 0
        assert row["acks"] == 0
        assert row["dup_data_drops"] == 0


def test_traffic_rows_under_wan_loss_count_faults():
    from repro.faults import FaultPlan

    rows = traffic_rows(apps=["asp"], faults=FaultPlan.wan_loss(0.05))
    assert rows
    # Run-level counters are repeated on every pair row of the app.
    drops = {r["fault_drops"] for r in rows}
    resent = {r["retransmits"] for r in rows}
    assert len(drops) == 1 and drops.pop() > 0
    assert len(resent) == 1 and resent.pop() > 0
    assert all(r["acks"] > 0 for r in rows)


@pytest.mark.parametrize("argv, message", [
    (["figure4", "--apps", "water"],
     "--apps applies only to figure3 and traffic, not figure4"),
    (["table1", "--apps", "asp"],
     "--apps applies only to figure3 and traffic, not table1"),
    (["table1", "--faults", "0.01"],
     "--faults applies only to traffic, not table1"),
    (["figure3", "--faults", "0.01"],
     "--faults applies only to traffic, not figure3"),
    (["figure1", "--scale", "None"], "invalid choice: 'None'"),
], ids=["figure4-apps", "table1-apps", "table1-faults", "figure3-faults",
        "scale-None"])
def test_flags_a_dataset_does_not_take_are_usage_errors(argv, message, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err


def test_scale_help_offers_only_real_scales(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    assert "{paper,bench}" in capsys.readouterr().out
