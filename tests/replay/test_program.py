"""Program-level behavior: vectorized pricing, loss axis, serialization.

These run entirely analytically (no ground-truth simulation beyond one
recording per module), so they are cheap enough to check real
invariants: grid pricing must agree with per-point pricing to within a
ULP (BLAS batches sum in different orders), serialization must
round-trip to identical arrays, and the loss model must be monotone
with a hard guard at the divergence point.
"""

import sys

import pytest

from repro.experiments import grids
from repro.replay import ReplayUnavailable, require_numpy
from repro.replay.compile import compile_recording
from repro.replay.program import PROGRAM_FORMAT, ReplayProgram
from repro.whatif.record import record_app


@pytest.fixture(scope="module")
def program():
    return compile_recording(record_app("asp", "optimized"))


def test_grid_matches_pointwise_pricing(program):
    grid = program.price_grid(grids.BANDWIDTHS_MBYTE_S, grids.LATENCIES_MS)
    assert grid.shape == (len(grids.LATENCIES_MS),
                          len(grids.BANDWIDTHS_MBYTE_S))
    for i, lat in enumerate(grids.LATENCIES_MS):
        for j, bw in enumerate(grids.BANDWIDTHS_MBYTE_S):
            assert float(grid[i][j]) == pytest.approx(
                program.price(grids.multi_cluster(bw, lat)), rel=1e-12)


def test_price_points_matches_grid(program):
    points = [(6.3, 0.5), (0.03, 300.0), (0.95, 3.3)]
    priced = program.price_points(points)
    for (bw, lat), value in zip(points, priced):
        assert float(value) == pytest.approx(
            program.price(grids.multi_cluster(bw, lat)), rel=1e-12)


def test_runtime_monotone_in_each_axis(program):
    grid = program.price_grid(grids.BANDWIDTHS_MBYTE_S, grids.LATENCIES_MS)
    np = require_numpy()
    # bandwidths are listed fastest-first, so runtime grows along the axis
    assert bool(np.all(np.diff(grid, axis=1) >= 0))
    # latencies are listed smallest-first
    assert bool(np.all(np.diff(grid, axis=0) >= 0))


def test_serialization_roundtrip_is_bit_identical(program):
    np = require_numpy()
    record = program.to_record()
    clone = ReplayProgram.from_record(record)
    for name in ("pred_a", "pred_b", "edge_a", "edge_b",
                 "level_starts", "fin_node", "fin_edge"):
        assert np.array_equal(getattr(program, name), getattr(clone, name))
    assert clone.meta == program.meta
    original = program.price_grid(grids.BANDWIDTHS_MBYTE_S,
                                  grids.LATENCIES_MS)
    assert np.array_equal(
        clone.price_grid(grids.BANDWIDTHS_MBYTE_S, grids.LATENCIES_MS),
        original)


def test_stale_format_is_refused(program):
    record = program.to_record()
    record["format"] = PROGRAM_FORMAT + 1
    with pytest.raises(ValueError) as err:
        ReplayProgram.from_record(record)
    assert "format" in str(err.value)


# ----------------------------------------------------------------------
# Loss axis
# ----------------------------------------------------------------------
def test_loss_axis_monotone_and_zero_consistent(program):
    np = require_numpy()
    losses = (0.0, 0.01, 0.1)
    cube = program.price_grid(grids.BANDWIDTHS_MBYTE_S, grids.LATENCIES_MS,
                              loss_rates=losses)
    assert cube.shape == (3, len(grids.LATENCIES_MS),
                          len(grids.BANDWIDTHS_MBYTE_S))
    # p=0 plane is exactly the lossless grid
    assert np.array_equal(
        cube[0], program.price_grid(grids.BANDWIDTHS_MBYTE_S,
                                    grids.LATENCIES_MS))
    # more loss never speeds anything up
    assert bool(np.all(np.diff(cube, axis=0) >= 0))
    # and strictly hurts somewhere for a WAN-heavy program
    assert float(cube[2].max()) > float(cube[0].max())


def test_loss_terms_price_the_default_transport_bitwise(program):
    """The loss model reads its constants from ``TransportConfig()``;
    the literals below are the copy ``program.py`` used to keep, so the
    two must agree to the bit."""
    np = require_numpy()
    inv_bw = 1.0 / (np.asarray(grids.BANDWIDTHS_MBYTE_S) * 1e6)
    wlat = np.full_like(inv_bw, 3.3e-3)
    loss = np.full_like(inv_bw, 0.1)
    meta = program.meta
    mean_bytes = meta["wan_bytes"] / meta["wan_traversals"]
    local_lat, _, send_ov, recv_ov = meta["local_spec"]
    fixed = 2.0 * (2.0 * local_lat + 2.0 * meta["gateway_overhead_s"]
                   + send_ov + recv_ov)
    rto = np.maximum(1e-3, 3.0 * (2.0 * wlat + (mean_bytes + 64.0) * inv_bw
                                  + fixed))
    expected = rto * (2.0 * loss / (1.0 - 2.0 * loss)
                      - loss / (1.0 - loss)) / (2.0 - 1.0)
    got_bw, got_expected = program._loss_terms(np, inv_bw, wlat, loss)
    assert got_expected.tobytes() == expected.tobytes()
    assert got_bw.tobytes() == (inv_bw / (1.0 - loss)).tobytes()


def test_loss_guard_at_divergence(program):
    with pytest.raises(ValueError) as err:
        program.price_grid(grids.BANDWIDTHS_MBYTE_S, grids.LATENCIES_MS,
                           loss_rates=[0.6])
    assert "loss" in str(err.value)


# ----------------------------------------------------------------------
# numpy guard
# ----------------------------------------------------------------------
def test_replay_unavailable_without_numpy(monkeypatch):
    monkeypatch.setitem(sys.modules, "numpy", None)
    with pytest.raises(ReplayUnavailable) as err:
        require_numpy()
    message = str(err.value)
    assert "numpy" in message
    # the error must point at the stdlib-only alternatives
    assert "predict" in message or "simulation" in message


def test_package_import_stays_stdlib_safe():
    """A no-numpy interpreter must still be able to ``import
    repro.replay`` and get the *clear* :class:`ReplayUnavailable` error —
    not a raw ImportError from deep inside the package."""
    import os
    import subprocess

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    code = (
        "import sys; sys.modules['numpy'] = None\n"
        "from repro.replay import ReplayUnavailable, require_numpy\n"
        "try:\n"
        "    require_numpy()\n"
        "except ReplayUnavailable as err:\n"
        "    assert 'numpy' in str(err)\n"
        "    print('ok')\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_replay_modules_never_import_numpy_at_module_scope():
    """require_numpy() is the single chokepoint: no replay source file
    may import numpy at module scope, or the guard can be bypassed."""
    import os

    import repro.replay

    pkg_dir = os.path.dirname(os.path.abspath(repro.replay.__file__))
    for name in sorted(os.listdir(pkg_dir)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(pkg_dir, name)) as handle:
            for line in handle:
                # column 0 only: function-scope imports are the pattern
                assert not line.startswith(("import numpy", "from numpy")), \
                    f"{name} imports numpy at module scope: {line.strip()!r}"
