"""Applications on uneven cluster shapes (the production DAS is 24/24/24/128).

Every driver must be correct for arbitrary cluster sizes, not just the
4x8 experimentation system.
"""

import numpy as np
import pytest

from repro.apps import run_app
from repro.apps.asp import AspConfig
from repro.apps.asp import kernel as asp_kernel
from repro.apps.awari import AwariConfig
from repro.apps.awari import kernel as awari_kernel
from repro.apps.tsp import TspConfig
from repro.apps.tsp import kernel as tsp_kernel
from repro.apps.water import WaterConfig
from repro.apps.water import kernel as water_kernel
from repro.network import Topology, myrinet, wan

#: Uneven shape: one big cluster, two small ones (mini production DAS).
UNEVEN = Topology((5, 2, 3), myrinet(), wan(3.0, 1.0))


@pytest.mark.parametrize("variant", ["unoptimized", "optimized"])
def test_water_on_uneven_clusters(variant):
    cfg = WaterConfig(molecules=30, iterations=2, real_data=True)
    result = run_app("water", variant, UNEVEN, config=cfg, seed=2)
    ref, _ = water_kernel.serial_water(cfg.molecules, cfg.iterations, 2)
    got = np.concatenate([result.results[r] for r in UNEVEN.ranks()])
    assert np.allclose(got, ref, atol=1e-8)


@pytest.mark.parametrize("variant", ["unoptimized", "optimized"])
def test_asp_on_uneven_clusters(variant):
    cfg = AspConfig(n=40, real_data=True)
    result = run_app("asp", variant, UNEVEN, config=cfg, seed=3)
    expected = asp_kernel.floyd_warshall(asp_kernel.random_graph(cfg.n, 3))
    got = np.concatenate([result.results[r] for r in UNEVEN.ranks()], axis=0)
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("variant", ["unoptimized", "optimized"])
def test_tsp_on_uneven_clusters(variant):
    cfg = TspConfig(cities=7, job_depth=2, real_data=True)
    result = run_app("tsp", variant, UNEVEN, config=cfg, seed=4)
    dist = tsp_kernel.random_cities(cfg.cities, 4)
    assert result.results[0] == tsp_kernel.solve_serial(dist, depth=2)


@pytest.mark.parametrize("variant", ["unoptimized", "optimized"])
def test_awari_on_uneven_clusters(variant):
    cfg = AwariConfig(real_data=True, game_tokens=30, takes=(1, 2))
    result = run_app("awari", variant, UNEVEN, config=cfg, seed=5)
    game = awari_kernel.SubtractionGame(cfg.game_tokens, cfg.takes)
    expected = awari_kernel.retrograde_solve(game)
    merged = {}
    for values in result.results:
        merged.update(values)
    assert merged == expected


@pytest.mark.parametrize("variant", ["unoptimized", "optimized"])
def test_barnes_on_uneven_clusters(variant):
    from repro.apps.barnes import BarnesConfig

    cfg = BarnesConfig(bodies=100, iterations=1, real_data=True, theta=0.4)
    result = run_app("barnes", variant, UNEVEN, config=cfg, seed=6)
    got = np.concatenate([result.results[r][0] for r in UNEVEN.ranks()])
    assert got.shape == (100, 3)
    assert np.all(np.isfinite(got))


def test_fft_scaled_on_uneven_clusters():
    """Real-data FFT needs p | rows; the scaled driver has no such limit."""
    from repro.apps.fft import FftConfig

    cfg = FftConfig(points=1 << 16)
    result = run_app("fft", "unoptimized", UNEVEN, config=cfg)
    assert result.runtime > 0
    p = UNEVEN.num_ranks
    assert result.stats.total_messages == 3 * p * (p - 1)
