"""Program-level behavior: vectorized pricing, loss axis, serialization.

These run entirely analytically (no ground-truth simulation beyond one
recording per module), so they are cheap enough to check real
invariants: grid pricing must agree with per-point pricing bit for bit
(a column's price does not depend on how many points are priced beside
it, nor on how the sweep chunks its edge costs), serialization must
round-trip to identical arrays, and the loss model must be monotone
with a hard guard at the divergence point.
"""

import hashlib
import random
import threading

import numpy as np
import pytest
from hypothesis import given, settings

from repro.experiments import grids
from repro.replay import program as program_module
from repro.replay.compile import compile_dag, compile_recording
from repro.replay.program import PROGRAM_FORMAT, ReplayProgram
from repro.whatif.record import record_app
from repro.whatif.validate import corner_points

from .test_adaptive import circuits


@pytest.fixture(scope="module")
def program():
    return compile_recording(record_app("asp", "optimized"))


def test_grid_matches_pointwise_pricing(program):
    grid = program.price_grid(grids.BANDWIDTHS_MBYTE_S, grids.LATENCIES_MS)
    assert grid.shape == (len(grids.LATENCIES_MS),
                          len(grids.BANDWIDTHS_MBYTE_S))
    for i, lat in enumerate(grids.LATENCIES_MS):
        for j, bw in enumerate(grids.BANDWIDTHS_MBYTE_S):
            assert float(grid[i][j]) == \
                program.price(grids.multi_cluster(bw, lat))


def test_price_points_matches_grid(program):
    points = [(6.3, 0.5), (0.03, 300.0), (0.95, 3.3)]
    priced = program.price_points(points)
    for (bw, lat), value in zip(points, priced):
        assert float(value) == program.price(grids.multi_cluster(bw, lat))


def test_runtime_monotone_in_each_axis(program):
    grid = program.price_grid(grids.BANDWIDTHS_MBYTE_S, grids.LATENCIES_MS)
    # bandwidths are listed fastest-first, so runtime grows along the axis
    assert bool(np.all(np.diff(grid, axis=1) >= 0))
    # latencies are listed smallest-first
    assert bool(np.all(np.diff(grid, axis=0) >= 0))


def test_serialization_roundtrip_is_bit_identical(program):
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
    got_bw, got_expected = program._loss_terms(inv_bw, wlat, loss)
    assert got_expected.tobytes() == expected.tobytes()
    assert got_bw.tobytes() == (inv_bw / (1.0 - loss)).tobytes()


def test_loss_guard_at_divergence(program):
    with pytest.raises(ValueError) as err:
        program.price_grid(grids.BANDWIDTHS_MBYTE_S, grids.LATENCIES_MS,
                           loss_rates=[0.6])
    assert "loss" in str(err.value)


# ----------------------------------------------------------------------
# Bitwise pins (generated at e570001, before the sweep kernels merged)
# ----------------------------------------------------------------------
COMPILABLE = [(app, variant) for app in ("water", "barnes", "asp", "fft")
              for variant in ("unoptimized", "optimized")]
LOSS_AXIS = (0.0, 0.001, 0.01, 0.05)
DENSE_AXIS = 16
DENSE_SEED = 19


def geometric_axis(rng, lo, hi, n):
    """``n`` increasing values over ``[lo, hi)``, one per log-bin (the
    ledger's off-paper axis)."""
    ratio = hi / lo
    return [lo * ratio ** ((i + rng.random()) / n) for i in range(n)]


def dense_axes(seed=DENSE_SEED, n=DENSE_AXIS):
    rng = random.Random(seed)
    bws, lats = grids.BANDWIDTHS_MBYTE_S, grids.LATENCIES_MS
    return (geometric_axis(rng, min(bws), max(bws), n),
            geometric_axis(rng, min(lats), max(lats), n))


def sha1(array) -> str:
    return hashlib.sha1(array.tobytes()).hexdigest()


def frozen_digests(app, variant):
    """Every frozen pricing entry point of one panel, to the bit."""
    recording = record_app(app, variant)
    program = compile_recording(recording)
    bws, lats = grids.BANDWIDTHS_MBYTE_S, grids.LATENCIES_MS
    return {
        "paper": sha1(program.price_grid(bws, lats)),
        "dense": sha1(program.price_grid(*dense_axes())),
        "loss": sha1(program.price_grid(bws, lats, loss_rates=LOSS_AXIS)),
        "corners": sha1(program.price_points(corner_points(bws, lats))),
        "anchor": program.price(recording.topology).hex(),
    }


FROZEN_PINS = {
    "water/unoptimized": {
        "paper": "62022dcc7bc1f7129b3b4eff5dd70f27de94c64d",
        "dense": "adc25feb9e09283d5b7d6ce35bba90c3bada4df0",
        "loss": "f37e1effb236de068262fe2ffeef04eeebd0c320",
        "corners": "0001a38b559656cb1b4380cf14f40d035881323c",
        "anchor": "0x1.6777da5966ac7p+1",
    },
    "water/optimized": {
        "paper": "44014f5007cfcf2562f1a8b0cc17ec23561eba90",
        "dense": "49a121a8e004ed6901e6a741dae966917fef2523",
        "loss": "ccc29a8acc7ed3856ba75d718ab8cbcb4a32ebdc",
        "corners": "442569e0c4c68e1f98649ac8b3a50fb24d092294",
        "anchor": "0x1.f2e187cde5a8ap+0",
    },
    "barnes/unoptimized": {
        "paper": "922b6eb8996b202c15d528c8d389f726569664b8",
        "dense": "4fb3d78f90cdb0068c9673d3deb2e2ce653e6e3c",
        "loss": "f6f6bc66c578f7c8203ab8292f817150296ac733",
        "corners": "42c52251e0d67119e236ab66d5f878811b0bb55b",
        "anchor": "0x1.54a851395d15fp+0",
    },
    "barnes/optimized": {
        "paper": "ab7ba3c9418ef16262e678ae16167f39c2e2cc21",
        "dense": "b52aef5d5e28c2b65a3ba4eb3ae44a9e380641b7",
        "loss": "c4c2f2ac955c6efd86432fa0ef3c000bd41a087b",
        "corners": "c9b2f8aa098f4e01ce5e2104cf0c4f0e82968032",
        "anchor": "0x1.8f7b83e2f4838p-1",
    },
    "asp/unoptimized": {
        "paper": "398a2119df70ec10fec784926f7e689b8414fb22",
        "dense": "1c3b91f0178d114fb0648dfdcd6833ed8d60b6e8",
        "loss": "7b5e1650e3567b75ef1833bdcab843a8a3830c5d",
        "corners": "d0271ea01f2c447b3e81d652c09fcf2e2abf7cfa",
        "anchor": "0x1.3a09d674527b9p+1",
    },
    "asp/optimized": {
        "paper": "a7eaf6a2a22f539619e356e647b7a56ee8c053fb",
        "dense": "99384d8c8013106454c70935e867f6e45fdfa3d8",
        "loss": "6813f7ac3c75f410afe407593fd6b636ec5ef98b",
        "corners": "a56e069147589b821af95e2a150597970e33d995",
        "anchor": "0x1.172867bb66bbfp+0",
    },
    "fft/unoptimized": {
        "paper": "eb27595bebf655e4a6a158531f0ca0a98d827108",
        "dense": "4266c3c42b2c8ddbdd52388df48b33aa89a41978",
        "loss": "c5811114f8b7cbf0f7ea122f2e8a250fecdbb15d",
        "corners": "24d713ba2c4549e04b165993f1d5c3bdc096a831",
        "anchor": "0x1.ae967f0a359a4p+1",
    },
    "fft/optimized": {
        "paper": "eb27595bebf655e4a6a158531f0ca0a98d827108",
        "dense": "4266c3c42b2c8ddbdd52388df48b33aa89a41978",
        "loss": "c5811114f8b7cbf0f7ea122f2e8a250fecdbb15d",
        "corners": "24d713ba2c4549e04b165993f1d5c3bdc096a831",
        "anchor": "0x1.ae967f0a359a4p+1",
    },
}


@pytest.mark.parametrize("app,variant", COMPILABLE)
def test_frozen_prices_are_bitwise_pinned(app, variant):
    assert frozen_digests(app, variant) == FROZEN_PINS[f"{app}/{variant}"]


@pytest.mark.parametrize("app,variant", COMPILABLE)
def test_one_point_prices_read_the_grid_bitwise(app, variant):
    """``price`` at every paper point is its grid value to the bit, at no
    loss and at 1 % loss.  A one-column product would take numpy's
    matrix-vector path, which rounds some edge costs differently from a
    wider one; no product against the parameter matrix takes it."""
    prog = compile_recording(record_app(app, variant))
    bws, lats = grids.BANDWIDTHS_MBYTE_S, grids.LATENCIES_MS
    for loss in (0.0, 0.01):
        grid = prog.price_grid(bws, lats, loss_rates=[loss])[0]
        for i, lat in enumerate(lats):
            for j, bw in enumerate(bws):
                one = prog.price(grids.multi_cluster(bw, lat), loss)
                assert one.hex() == float(grid[i, j]).hex(), (bw, lat, loss)


@pytest.mark.parametrize("chunk_bytes", [1, 1 << 40],
                         ids=["level-per-chunk", "one-chunk"])
def test_chunk_size_changes_no_bit(monkeypatch, chunk_bytes):
    """The sweep prices each chunk of levels just before it sweeps them;
    with a chunk per level or one chunk for the whole program, every
    frozen pin holds."""
    monkeypatch.setattr(program_module, "CHUNK_BYTES", chunk_bytes)
    for app, variant in COMPILABLE:
        assert frozen_digests(app, variant) == FROZEN_PINS[f"{app}/{variant}"]
    products = []
    priced = program_module._priced
    monkeypatch.setattr(program_module, "_priced",
                        lambda *args: products.append(args) or priced(*args))
    prog = compile_recording(record_app("asp", "optimized"))
    prog.price_grid(grids.BANDWIDTHS_MBYTE_S, grids.LATENCIES_MS)
    # one product per chunk, then the finish rows'
    chunks = len(products) - 1
    assert chunks == (prog.num_levels - 1 if chunk_bytes == 1 else 1)


# ----------------------------------------------------------------------
# Input validation: one refusal, in the shared axis -> terms helper
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bws,lats,losses,named", [
    ([-1.0, 1.0], [-5.0], None, "bandwidth -1.0"),
    ([0.0], [1.0], None, "bandwidth 0.0"),
    ([float("nan")], [1.0], None, "bandwidth nan"),
    ([float("inf")], [1.0], None, "bandwidth inf"),
    ([1.0], [-5.0], None, "latency -5.0"),
    ([1.0], [float("inf")], None, "latency inf"),
    ([1.0], [float("nan")], None, "latency nan"),
    ([1.0], [1.0], [float("nan")], "loss rate nan"),
    ([1.0], [1.0], [-0.01], "loss rate -0.01"),
])
def test_unpriceable_axis_values_are_refused_by_name(program, bws, lats,
                                                     losses, named):
    with np.errstate(all="raise"), pytest.raises(ValueError, match=named):
        program.price_grid(bws, lats, loss_rates=losses)
    if losses is None:
        with pytest.raises(ValueError, match=named):
            program.price_points([(bws[0], lats[0])])


def test_zero_latency_and_empty_axes_still_price(program):
    assert program.price_grid([1.0], [0.0]).shape == (1, 1)
    assert program.price_grid([], []).shape == (0, 0)
    assert program.price_grid([1.0], []).shape == (0, 1)
    assert program.price_grid([], [1.0], loss_rates=[0.0, 0.01]).shape == \
        (2, 1, 0)
    assert program.price_points([]).shape == (0,)


def test_price_refuses_a_bad_loss_rate_at_a_topology(program):
    with pytest.raises(ValueError, match="loss rate 0.7"):
        program.price(grids.multi_cluster(1.0, 1.0), loss_rate=0.7)


# ----------------------------------------------------------------------
# The per-thread workspace
# ----------------------------------------------------------------------
def poison_workspace():
    """Overwrite whatever the calling thread's workspace retains."""
    if program_module._WORKSPACE.buf is not None:
        program_module._WORKSPACE.buf.fill(float("nan"))


def reachable_arrays(obj, seen=None):
    """Every ndarray reachable from ``obj`` through attributes, slots
    and plain containers."""
    seen = set() if seen is None else seen
    if id(obj) in seen or isinstance(obj, (str, bytes, int, float)):
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
        if obj.base is not None:
            yield from reachable_arrays(obj.base, seen)
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from reachable_arrays(value, seen)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from reachable_arrays(value, seen)
    else:
        for name in list(getattr(obj, "__dict__", ())) + \
                list(getattr(type(obj), "__slots__", ())):
            yield from reachable_arrays(getattr(obj, name, None), seen)


def test_interleaved_point_counts_read_no_stale_buffer():
    """P = 4, 1, 42, 256 on one program, the workspace poisoned between
    calls, against the fresh-program digests pinned above."""
    recording = record_app("asp", "unoptimized")
    prog = compile_recording(recording)
    bws, lats = grids.BANDWIDTHS_MBYTE_S, grids.LATENCIES_MS
    want = FROZEN_PINS["asp/unoptimized"]
    for _ in range(2):
        poison_workspace()
        assert sha1(prog.price_points(corner_points(bws, lats))) == \
            want["corners"]
        poison_workspace()
        assert prog.price(recording.topology).hex() == want["anchor"]
        poison_workspace()
        assert sha1(prog.price_grid(bws, lats)) == want["paper"]
        poison_workspace()
        assert sha1(prog.price_grid(*dense_axes())) == want["dense"]


def test_programs_keep_no_point_sized_array_and_the_workspace_is_bounded():
    axes = dense_axes()
    programs = [compile_recording(record_app(app, variant))
                for app in ("asp", "barnes")
                for variant in ("optimized", "unoptimized")]
    for prog in programs:
        prog.price_grid(*axes)
    fft = record_app("fft", "unoptimized")
    adaptive = compile_dag(fft.dag, fft.topology, adaptive=True)
    adaptive.price_grid_adaptive(grids.BANDWIDTHS_MBYTE_S,
                                 grids.LATENCIES_MS)
    for prog in programs + [adaptive]:
        # the stacked layout is (2N, 4); anything (N, P)-sized is scratch
        biggest = max(a.size for a in reachable_arrays(prog))
        assert biggest <= 8 * prog.num_nodes, biggest
        assert not hasattr(prog, "_lock") and not hasattr(prog, "_plan")
    retained = program_module._WORKSPACE.buf
    assert retained.dtype == np.float64
    assert 0 < retained.nbytes <= program_module.WORKSPACE_BYTES


def test_dense_grid_keeps_no_edge_cost_matrix(monkeypatch):
    """A 16 x 16 grid leaves ``t`` (the layout's rows, not one per
    node), one chunk of edge costs and the gather arena in the
    workspace: no (2N x P) cost matrix, and under 40 % of the
    3N + 2 * max_width rows a full cost matrix needs."""
    monkeypatch.setattr(program_module._WORKSPACE, "buf", None)
    prog = compile_recording(record_app("asp", "unoptimized"))
    assert sha1(prog.price_grid(*dense_axes())) == \
        FROZEN_PINS["asp/unoptimized"]["dense"]
    lay, points = prog._layout(), DENSE_AXIS * DENSE_AXIS
    n, width = prog.num_nodes, 2 * lay.max_width
    kept = program_module._WORKSPACE.buf.nbytes
    assert kept <= 8 * points * (lay.rows + lay.chunk_rows(points) + width)
    assert kept < 0.4 * 8 * points * (3 * n + width)


def test_a_64_by_64_grid_sweeps_in_live_rows(monkeypatch):
    """asp/unoptimized at 64 x 64 points: ``t`` holds the live rows
    (under 2 % of the nodes), so the workspace stays within 16 MiB
    where one row per node needs 421 MiB, and every sampled column is
    its point's own price to the bit."""
    monkeypatch.setattr(program_module._WORKSPACE, "buf", None)
    prog = compile_recording(record_app("asp", "unoptimized"))
    bws, lats = dense_axes(seed=DENSE_SEED + 1, n=64)
    grid = prog.price_grid(bws, lats)
    assert program_module._WORKSPACE.buf.nbytes <= 16 << 20
    lay = prog._layout()
    assert lay.rows < 0.02 * prog.num_nodes
    assert reuse_conflicts(prog, program_module._Layout.live_rows(prog)) == []
    rng = random.Random(DENSE_SEED)
    cells = [(rng.randrange(64), rng.randrange(64)) for _ in range(4)]
    priced = prog.price_points([(bws[j], lats[i]) for i, j in cells])
    assert [grid[i, j] for i, j in cells] == list(priced)


def reuse_conflicts(prog, row):
    """The ``(row, holder, node)`` triples where ``row`` hands a node's
    row to a later ``node`` while the holder's value is still wanted: by
    a reader at or after ``node``'s level, or as a finish stamp.  Also
    refused: level 0 off rows ``[0, width)``, where the sweep writes it."""
    starts = prog.level_starts.tolist()
    level = np.repeat(np.arange(len(starts) - 1), np.diff(starts)).tolist()
    last = list(level)                       # its own level when unread
    for i in range(starts[1], prog.num_nodes):
        for p in (int(prog.pred_a[i]), int(prog.pred_b[i])):
            last[p] = max(last[p], level[i])
    for f in prog.fin_node.tolist():
        last[f] = float("inf")
    conflicts = [(int(row[i]), None, i) for i in range(starts[1])
                 if row[i] != i]
    holder = {}
    for i in range(prog.num_nodes):          # in level order
        r = int(row[i])
        if r in holder and (level[holder[r]] == level[i]
                            or last[holder[r]] >= level[i]):
            conflicts.append((r, holder[r], i))
        holder[r] = i
    return conflicts


@settings(max_examples=40, deadline=None, derandomize=True)
@given(circuit=circuits())
def test_rows_are_reused_only_once_their_readers_have_swept(circuit):
    """Over random circuits, the frozen program's row map gives no row
    away early, and pricing through it equals, bitwise, the same
    program swept with one row per node."""
    pa, pb, ea, eb, finish, _ = circuit
    prog = ReplayProgram.from_circuit(pa, pb, ea, eb, finish, {})
    assert reuse_conflicts(prog, program_module._Layout.live_rows(prog)) == []
    bws, lats = [0.03, 0.25, 1.0, 6.3], [0.5, 3.3, 30.0, 300.0]
    live = prog.price_grid(bws, lats)
    every = ReplayProgram.from_circuit(pa, pb, ea, eb, finish, {})
    every._stacked = program_module._Layout(
        every, np.arange(every.num_nodes, dtype=np.intp))
    assert every._layout().rows == every.num_nodes
    assert live.tobytes() == every.price_grid(bws, lats).tobytes()


def test_request_over_the_bound_is_served_without_being_kept(monkeypatch):
    monkeypatch.setattr(program_module, "WORKSPACE_BYTES", 1 << 20)
    monkeypatch.setattr(program_module._WORKSPACE, "buf", None)
    prog = compile_recording(record_app("barnes", "optimized"))
    bws, lats = grids.BANDWIDTHS_MBYTE_S, grids.LATENCIES_MS
    prog.price_points(corner_points(bws, lats))      # 4 points: 192 kB
    kept = program_module._WORKSPACE.buf
    assert kept is not None and kept.nbytes <= 1 << 20
    size = kept.nbytes
    want = FROZEN_PINS["barnes/optimized"]
    assert sha1(prog.price_grid(*dense_axes())) == want["dense"]   # 12 MB
    assert program_module._WORKSPACE.buf is kept and kept.nbytes == size
    assert sha1(prog.price_points(corner_points(bws, lats))) == \
        want["corners"]


def test_two_threads_price_two_programs_concurrently():
    """Workspaces are per thread and programs hold no call state: a
    frozen dense grid and an adaptive paper grid priced side by side
    equal their serial results, every round."""
    rounds = 20
    frozen = compile_recording(record_app("asp", "optimized"))
    fft = record_app("fft", "unoptimized")
    adaptive = compile_dag(fft.dag, fft.topology, adaptive=True)
    axes = dense_axes()
    bws, lats = grids.BANDWIDTHS_MBYTE_S, grids.LATENCIES_MS

    def adaptive_bits():
        result = adaptive.price_grid_adaptive(bws, lats)
        return (sha1(result.runtimes), result.iterations.tolist(),
                result.converged.tolist(), result.order_changes)

    jobs = {"frozen": lambda: sha1(frozen.price_grid(*axes)),
            "adaptive": adaptive_bits}
    serial = {name: job() for name, job in jobs.items()}
    assert serial["frozen"] == FROZEN_PINS["asp/optimized"]["dense"]
    got = {name: [] for name in jobs}
    errors = []
    adaptive_done = threading.Event()

    def worker(name):
        # the frozen thread keeps pricing while the adaptive one runs
        try:
            while len(got[name]) < rounds or not (
                    name == "adaptive" or adaptive_done.is_set()):
                got[name].append(jobs[name]())
        except Exception as err:         # surfaced by the assert below
            errors.append(err)
        finally:
            if name == "adaptive":
                adaptive_done.set()

    threads = [threading.Thread(target=worker, args=(name,))
               for name in jobs]
    # numpy releases the interpreter lock inside every large gather,
    # add and maximum, so the two sweeps genuinely overlap
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert got["adaptive"] == [serial["adaptive"]] * rounds
    assert len(got["frozen"]) >= rounds
    assert set(got["frozen"]) == {serial["frozen"]}
