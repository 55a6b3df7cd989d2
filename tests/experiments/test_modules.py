"""Smoke + content tests for the runnable experiment modules.

Each main() must run end-to-end at bench scale and print the artifact's
table(s).  Content checks are light here — the heavy shape assertions
live in benchmarks/.
"""

import pytest

from repro.experiments import (
    ablations,
    clusters,
    figure1,
    figure3,
    figure4,
    grids,
    magpie_bench,
    table1,
    table2,
    variability,
)


def test_table1_main_bench_scale(capsys):
    table1.main(["--scale", "bench"])
    out = capsys.readouterr().out
    assert "Table 1" in out
    for app in ("water", "barnes", "tsp", "asp", "awari", "fft"):
        assert app in out


def test_table1_measure_app_row_fields():
    row = table1.measure_app("tsp", scale="bench")
    assert row.app == "tsp"
    assert row.speedup_32 > row.speedup_8 > 1.0
    assert row.runtime_32 > 0 and row.traffic_mbyte_s > 0


def test_table2_main(capsys):
    table2.main(["--scale", "bench"])
    out = capsys.readouterr().out
    assert "Sequencer migration" in out
    assert "none found" in out


def test_figure1_main(capsys):
    figure1.main(["--scale", "bench"])
    out = capsys.readouterr().out
    assert "MByte/s/cluster" in out and "msgs/s/cluster" in out


def test_figure3_single_panel(capsys):
    figure3.main(["--apps", "tsp", "--variant", "optimized"])
    out = capsys.readouterr().out
    assert "TSP optimized" in out
    assert "0.5 ms" in out and "300 ms" in out
    assert "legend" in out  # the ASCII chart rendered


def synthetic_grid(bandwidths, latencies):
    from repro.experiments.runner import SpeedupGrid
    grid = SpeedupGrid(app="asp", variant="optimized", baseline_runtime=1.25)
    for i, lat in enumerate(latencies):
        for j, bw in enumerate(bandwidths):
            grid.put(bw, lat, 1.25 + 0.07 * i + 0.11 * j * j)
    return grid


def test_render_panel_takes_its_axes_from_the_grid():
    import hashlib
    from repro.experiments import grids
    # the paper grid renders byte for byte what the hard-coded axes did
    # (digest taken at the parent commit, on this synthetic surface)
    panel = figure3.render_panel(
        synthetic_grid(grids.BANDWIDTHS_MBYTE_S, grids.LATENCIES_MS))
    assert hashlib.sha1(panel.encode()).hexdigest() == \
        "baf8e569c09409a91ac4de8353d002dcf351ce79"
    # any other grid used to raise KeyError('... no latency=0.5 ms series')
    small = figure3.render_panel(synthetic_grid([0.95, 6.3], [5.0, 0.7]))
    table = small.splitlines()[1:5]
    assert table[0].split("|")[1:] == [" 6.3    ", " 0.95  "]   # descending
    assert [row.split("|")[0].strip() for row in table[2:]] == \
        ["0.7 ms", "5 ms"]                                      # ascending


def test_the_fft_rule_has_one_home():
    for app in grids.OPTIMIZED_APPS:
        assert grids.variants(app) == ("unoptimized", "optimized")
        assert grids.paper_variant(app) == "optimized"
        for variant in grids.VARIANTS:
            assert grids.resolve_variant(app, variant) == variant
    assert grids.variants("fft") == ("unoptimized",)
    assert grids.paper_variant("fft") == "unoptimized"
    assert grids.resolve_variant("fft", "optimized") == "unoptimized"
    assert grids.resolve_variant("fft", "unoptimized") == "unoptimized"
    # an unknown name is the app registry's to reject, not ours to map
    assert grids.resolve_variant("fft", "bogus") == "bogus"


def test_figure3_fft_has_single_variant(capsys):
    figure3.main(["--apps", "fft"])
    out = capsys.readouterr().out
    assert out.count("FFT unoptimized") == 1
    assert "FFT optimized" not in out


def test_figure4_main(capsys):
    figure4.main([])
    out = capsys.readouterr().out
    assert "communication time vs bandwidth" in out
    assert "communication time vs latency" in out


def test_clusters_main(capsys):
    clusters.main(["--apps", "water"])
    out = capsys.readouterr().out
    assert "8x4" in out and "4x8" in out and "2x16" in out


def test_magpie_bench_main(capsys):
    magpie_bench.main([])
    out = capsys.readouterr().out
    assert "MagPIe vs MPICH-like" in out
    for name in ("bcast", "allgatherv", "reduce_scatter", "scan"):
        assert name in out


def test_variability_sweep_shapes():
    curve = variability.sweep("tsp", "latency")
    assert len(curve) == len(variability.CVS)
    assert all(0 < v <= 110 for v in curve)


def test_ablations_main_single(capsys):
    ablations.main(["water-coordinator"])
    out = capsys.readouterr().out
    assert "Ablation: water-coordinator" in out
    assert "spread over members" in out
