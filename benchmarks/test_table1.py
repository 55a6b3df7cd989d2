"""Table 1 benchmark: single-cluster speedups, traffic and runtime at the
paper's problem sizes, asserted against the published numbers."""

import pytest

from repro.experiments.table1 import PAPER_TABLE1, measure_app

#: Acceptable relative deviation from the paper's cell values.  Awari and
#: FFT carry wider bands (heavily machine-dependent effects: hash-load
#: imbalance, superlinear caches) — see EXPERIMENTS.md.
TOLERANCES = {
    "water": 0.15,
    "barnes": 0.20,
    "tsp": 0.15,
    "asp": 0.15,
    "awari": 0.40,
    "fft": 0.45,
}


@pytest.mark.parametrize("app", list(PAPER_TABLE1))
def test_table1_row(app):
    row = measure_app(app, "paper")
    paper = PAPER_TABLE1[app]
    tol = TOLERANCES[app]
    assert row.speedup_32 == pytest.approx(paper["sp32"], rel=tol)
    assert row.speedup_8 == pytest.approx(paper["sp8"], rel=tol)
    assert row.runtime_32 == pytest.approx(paper["runtime"], rel=tol)
    assert row.traffic_mbyte_s == pytest.approx(paper["traffic"], rel=max(tol, 0.5))


def test_table1_orderings():
    """Cross-app structure: Awari's speedup is by far the worst; FFT's
    single-cluster speedup is the best (near-linear)."""
    rows = {app: measure_app(app, "paper") for app in ("water", "awari", "fft")}
    assert rows["awari"].speedup_32 < rows["water"].speedup_32 / 2
    assert rows["fft"].speedup_32 > 25
