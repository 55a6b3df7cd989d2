"""FFT: six-step kernel vs. numpy, distributed transposes vs. reference,
and the all-to-all pattern's hopeless multi-cluster profile."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import run_app
from repro.apps.fft import FftConfig, kernel
from repro.network import das_topology, single_cluster


# ----------------------------------------------------------------------
# Kernel
# ----------------------------------------------------------------------
class TestKernel:
    @pytest.mark.parametrize("n", [4, 16, 64, 256, 1024, 4096])
    def test_six_step_matches_numpy(self, n):
        x = kernel.random_signal(n, seed=n)
        assert np.allclose(kernel.six_step_fft(x), np.fft.fft(x), atol=1e-8)

    def test_split_dims(self):
        assert kernel.split_dims(1 << 20) == (1024, 1024)
        assert kernel.split_dims(1 << 13) == (64, 128)
        assert kernel.split_dims(4) == (2, 2)

    @pytest.mark.parametrize("bad", [0, 3, 12, -8])
    def test_split_dims_rejects_non_powers(self, bad):
        with pytest.raises(ValueError):
            kernel.split_dims(bad)

    def test_point_stages_scale(self):
        assert kernel.point_stages(2, 1024) == 2 * 1024 * 10

    @given(st.integers(min_value=2, max_value=10))
    def test_six_step_linearity(self, log_n):
        """FFT is linear: fft(a + b) == fft(a) + fft(b)."""
        n = 1 << log_n
        a = kernel.random_signal(n, seed=1)
        b = kernel.random_signal(n, seed=2)
        lhs = kernel.six_step_fft(a + b)
        rhs = kernel.six_step_fft(a) + kernel.six_step_fft(b)
        assert np.allclose(lhs, rhs, atol=1e-8)


# ----------------------------------------------------------------------
# Parallel correctness (real data)
# ----------------------------------------------------------------------
REAL_CFG = FftConfig(points=1 << 12, real_data=True)
REAL_SEED = 3


@pytest.mark.parametrize("topo", [single_cluster(4),
                                  das_topology(clusters=2, cluster_size=2),
                                  das_topology(clusters=4, cluster_size=2),
                                  single_cluster(8)])
def test_parallel_matches_numpy(topo):
    result = run_app("fft", "unoptimized", topo, config=REAL_CFG,
                     seed=REAL_SEED)
    assembled = np.concatenate([result.results[r] for r in range(topo.num_ranks)],
                               axis=0).reshape(-1)
    x = kernel.random_signal(REAL_CFG.points, REAL_SEED)
    # Final layout: C x R matrix whose flattening is the natural order.
    assert np.allclose(assembled, np.fft.fft(x), atol=1e-7)


def test_both_variants_are_the_same_driver():
    topo = das_topology(clusters=2, cluster_size=2)
    r1 = run_app("fft", "unoptimized", topo, config=REAL_CFG, seed=REAL_SEED)
    r2 = run_app("fft", "optimized", topo, config=REAL_CFG, seed=REAL_SEED)
    assert r1.runtime == r2.runtime  # no optimization exists (paper)


# ----------------------------------------------------------------------
# Communication profile (scaled mode)
# ----------------------------------------------------------------------
SCALED_CFG = FftConfig(points=1 << 20)


def test_transpose_message_count():
    topo = single_cluster(8)
    result = run_app("fft", "unoptimized", topo, config=SCALED_CFG)
    p = topo.num_ranks
    assert result.stats.total_messages == 3 * p * (p - 1)


def test_traffic_volume_matches_three_transposes():
    topo = single_cluster(32)
    result = run_app("fft", "unoptimized", topo, config=SCALED_CFG)
    n = SCALED_CFG.points
    p = 32
    expected = 3 * p * (p - 1) * (n // (p * p)) * 16
    assert result.stats.total_bytes == expected


def test_fft_collapses_on_multicluster():
    """The paper: FFT never reaches even 25% relative speedup."""
    single = run_app("fft", "unoptimized", single_cluster(32),
                     config=SCALED_CFG).runtime
    multi = run_app("fft", "unoptimized",
                    das_topology(clusters=4, cluster_size=8,
                                 wan_latency_ms=0.5, wan_bandwidth_mbyte_s=6.0),
                    config=SCALED_CFG).runtime
    assert single / multi < 0.5  # below 50% even at the *fastest* WAN grid point


def test_fft_bandwidth_dominated():
    base = dict(clusters=4, cluster_size=8, wan_latency_ms=0.5)
    t_hi = run_app("fft", "unoptimized",
                   das_topology(wan_bandwidth_mbyte_s=6.0, **base),
                   config=SCALED_CFG).runtime
    t_lo = run_app("fft", "unoptimized",
                   das_topology(wan_bandwidth_mbyte_s=0.3, **base),
                   config=SCALED_CFG).runtime
    assert t_lo > 10 * t_hi
