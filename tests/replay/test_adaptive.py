"""Property tests for the order-adaptive fixed-point engine.

Hypothesis generates synthetic max-plus circuits with contended
resources (queue groups whose arrivals hang off arbitrary earlier
nodes), and every example pins the engine's three contracts:

* **Exactness** — at a converged point the engine's price equals an
  independent interpreted reference (topological walk + sequential
  busy-period serve in arrival order) to <= 1 ULP.  All generated
  values are dyadic rationals and the probe points are exact powers of
  two, so every intermediate — matmul pricing, the segmented cumsum,
  the rebase subtraction — is exact and the comparison is in fact
  bitwise.
* **Honesty** — a point the iteration could not fix within the cap is
  flagged unconverged, and :meth:`AdaptiveResult.runtime_at` refuses to
  read it; capped values are never returned silently.
* **Determinism** — iteration counts, runtimes, and order-change
  tallies are identical across repeated runs, across freshly packed
  programs, and between batched and one-point-at-a-time evaluation
  (the converged-point compaction must not perturb survivors).

The circuits are feedforward by construction (arrivals only reference
already-created nodes), so a generous cap always converges and the
fixed point is unique — which is what makes the reference comparison
meaningful.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import grids
from repro.replay import adaptive as adaptive_module
from repro.replay import program as program_module
from repro.replay.adaptive import DEFAULT_MAX_ITERS, AdaptiveProgram
from repro.replay.compile import compile_dag
from repro.whatif.record import record_app
from repro.whatif.validate import corner_points

#: plenty for feedforward circuits (depth <= number of groups)
CAP = 64

# Dyadic building blocks: all coefficients are multiples of 1/16 and
# the swept parameters are powers of two, so float arithmetic over the
# circuit is exact and "<= 1 ULP" is a real bound, not a fudge factor.
dyadic = st.integers(0, 64).map(lambda n: n / 16.0)
pos_dyadic = st.integers(1, 64).map(lambda n: n / 16.0)
# (inv_bandwidth, wan_latency) per probe point, exact powers of two
param_points = st.lists(
    st.tuples(st.integers(-6, 2).map(lambda k: 2.0 ** k),
              st.integers(-6, 2).map(lambda k: 2.0 ** k)),
    min_size=1, max_size=6)


@st.composite
def circuits(draw):
    """A synthetic circuit + queue groups, in reference order.

    Returns ``(pa, pb, ea, eb, finish, glist)`` in the
    :meth:`AdaptiveProgram.from_circuit_groups` calling convention.
    Node 0 is the root (value 0); queue join nodes are emitted
    chainless exactly as the adaptive compiler does.
    """
    pa, pb = [0], [0]
    zero = (0.0, 0.0, 0.0, 0.0)
    ea, eb = [zero], [zero]

    def row():
        return (draw(dyadic), draw(dyadic), draw(dyadic), 0.0)

    def base_node():
        a = draw(st.integers(0, len(pa) - 1))
        b = draw(st.integers(0, len(pa) - 1))
        pa.append(a)
        pb.append(b)
        ea.append(row())
        eb.append(row())
        return len(pa) - 1

    for _ in range(draw(st.integers(1, 3))):
        base_node()

    glist = []
    for g in range(draw(st.integers(1, 3))):
        # arrivals and the seed only reference pre-group nodes: the
        # interpreted reference below serves each group atomically, so
        # intra-group feedback (an arrival hanging off the same
        # resource's earlier booking) is out of its scope — the engine
        # handles it, but then there is no independent oracle to
        # compare against
        avail = len(pa)
        seed_node = draw(st.integers(0, avail - 1))
        seed = (seed_node,) + row()
        ops = []
        for _ in range(draw(st.integers(1, 5))):
            arr_pred = draw(st.integers(0, avail - 1))
            arrival = (arr_pred,) + row()
            cost = (draw(pos_dyadic), draw(dyadic), 0.0, 0.0)
            # chainless join: both preds/edges are the arrival, the
            # engine overrides the value with the served start
            pa.append(arr_pred)
            pb.append(arr_pred)
            ea.append(arrival[1:])
            eb.append(arrival[1:])
            ops.append((arrival, cost, len(pa) - 1))
        glist.append((f"kind{g % 2}", seed, ops))
        # downstream consumers so queue values feed later arrivals
        for _ in range(draw(st.integers(0, 2))):
            base_node()

    finish = [(len(pa) - 1,) + row()]
    for _ in range(draw(st.integers(0, 2))):
        finish.append((draw(st.integers(0, len(pa) - 1)),) + row())
    return pa, pb, ea, eb, finish, glist


def build(circuit) -> AdaptiveProgram:
    pa, pb, ea, eb, finish, glist = circuit
    return AdaptiveProgram.from_circuit_groups(pa, pb, ea, eb, finish,
                                               {}, glist)


def run(prog, points, max_iters=CAP, order_tol=0.0):
    inv_bw = np.array([p[0] for p in points], dtype=np.float64)
    wlat = np.array([p[1] for p in points], dtype=np.float64)
    return prog._adaptive(inv_bw, wlat, np.zeros_like(inv_bw),
                          max_iters, order_tol)


def reference(circuit, inv_bw, wlat):
    """Interpreted evaluation: topological walk, each queue served
    sequentially in arrival order (ties by reference op order)."""
    pa, pb, ea, eb, finish, glist = circuit
    params = (1.0, inv_bw, wlat, 0.0)

    def dot(r):
        return (r[0] * params[0] + r[1] * params[1]
                + r[2] * params[2] + r[3] * params[3])

    serve_at = {ops[0][2]: (seed, ops) for _, seed, ops in glist}
    t = [0.0] * len(pa)
    served = {}
    for i in range(1, len(pa)):
        if i in serve_at:
            seed, ops = serve_at[i]
            arr = [t[at[0]] + dot(at[1:]) for at, _, _ in ops]
            order = sorted(range(len(ops)), key=lambda j: (arr[j], j))
            free = t[seed[0]] + dot(seed[1:])
            for j in order:
                start = max(arr[j], free)
                served[ops[j][2]] = start
                free = start + dot(ops[j][1])
        if i in served:
            t[i] = served[i]
        else:
            t[i] = max(t[pa[i]] + dot(ea[i]), t[pb[i]] + dot(eb[i]))
    return max(t[f[0]] + dot(f[1:]) for f in finish)


# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None, derandomize=True)
@given(circuit=circuits(), points=param_points)
def test_converged_points_match_the_interpreted_reference(circuit, points):
    prog = build(circuit)
    result = run(prog, points)
    assert result.all_converged, result.summary()
    for i, (inv_bw, wlat) in enumerate(points):
        expected = reference(circuit, inv_bw, wlat)
        got = float(result.runtimes[i])
        assert abs(got - expected) <= math.ulp(expected), \
            f"point {i}: {got!r} != {expected!r}"


@settings(max_examples=25, deadline=None, derandomize=True)
@given(circuit=circuits(), points=param_points)
def test_unconverged_points_refuse_to_price(circuit, points):
    prog = build(circuit)
    tight = run(prog, points, max_iters=1)
    full = run(prog, points)
    for i in range(len(points)):
        if bool(tight.converged[i]):
            # a point that settled within the tight cap is the real
            # fixed point — the cap only bounds, never perturbs
            assert float(tight.runtimes[i]) == float(full.runtimes[i])
        else:
            with pytest.raises(ValueError, match="did not converge"):
                tight.runtime_at(i)


def test_capped_iteration_flags_unconverged_deterministically():
    # Two same-arrival bookings force real waiting: the chainless
    # relaxation is wrong, iteration 1 corrects it, so max_iters=1
    # cannot observe a stable pass and must flag the point.
    zero = (0.0, 0.0, 0.0, 0.0)
    pa, pb = [0, 0, 1, 1], [0, 0, 1, 1]
    row = (1.0, 0.0, 0.0, 0.0)
    ea = [zero, row, row, row]
    eb = [zero, row, row, row]
    ops = [((1,) + row, row, 2), ((1,) + row, row, 3)]
    glist = [("nic", (0,) + zero, ops)]
    prog = build((pa, pb, ea, eb, [(3,) + zero], glist))

    capped = run(prog, [(1.0, 1.0)], max_iters=1)
    assert not capped.all_converged
    with pytest.raises(ValueError, match="downgrade"):
        capped.runtime_at(0)

    settled = run(prog, [(1.0, 1.0)], max_iters=3)
    assert settled.all_converged
    # serve order is (node 2, node 3): start(3) = arrival + cost = 3.0,
    # finish edge adds nothing
    assert settled.runtime_at(0) == 3.0


@settings(max_examples=25, deadline=None, derandomize=True)
@given(circuit=circuits(), points=param_points)
def test_iteration_counts_and_prices_are_deterministic(circuit, points):
    first_prog = build(circuit)
    a = run(first_prog, points)
    b = run(first_prog, points)          # same program, cached plan
    c = run(build(circuit), points)      # freshly packed program
    for other in (b, c):
        assert a.runtimes.tolist() == other.runtimes.tolist()
        assert a.iterations.tolist() == other.iterations.tolist()
        assert a.converged.tolist() == other.converged.tolist()
        assert a.order_changes == other.order_changes


@settings(max_examples=20, deadline=None, derandomize=True)
@given(circuit=circuits(), points=param_points)
def test_batched_and_solo_evaluation_agree(circuit, points):
    # The converged-point compaction must never perturb survivors:
    # every point prices identically alone and in a batch.
    prog = build(circuit)
    batched = run(prog, points)
    for i, point in enumerate(points):
        solo = run(prog, [point])
        assert float(solo.runtimes[0]) == float(batched.runtimes[i])
        assert int(solo.iterations[0]) == int(batched.iterations[i])


# ----------------------------------------------------------------------
# Bitwise pins on the recorded apps (generated at e570001, before the
# sweep kernels merged and the serve went to flat indices)
# ----------------------------------------------------------------------
def adaptive_program(app, variant):
    recording = record_app(app, variant)
    return compile_dag(recording.dag, recording.topology, adaptive=True)


def result_digest(result):
    """Runtimes to the bit, plus everything the iteration map decides."""
    return {
        "runtimes": hashlib.sha1(result.runtimes.tobytes()).hexdigest(),
        "iterations": hashlib.sha1(
            result.iterations.astype("<i4").tobytes()).hexdigest(),
        "max_iterations": result.max_iterations,
        "unconverged": result.num_unconverged,
        "converged": hashlib.sha1(
            result.converged.astype("u1").tobytes()).hexdigest(),
        "order_changes": dict(sorted(result.order_changes.items())),
    }


def corner_digest(app, variant):
    corners = corner_points(grids.BANDWIDTHS_MBYTE_S, grids.LATENCIES_MS)
    return result_digest(
        adaptive_program(app, variant).price_points_adaptive(corners))


FFT_GRID_PIN = {
    "runtimes": "9d073d043575fdce0dbff2b2abf13ecfd7b9317f",
    "iterations": "0f49be929f083dd119dc31f07101493e3abe318f",
    "max_iterations": 30,
    "unconverged": 0,
    "converged": "3fb60486cb54b19eaf423777b2a65da287cca38d",
    "order_changes": {"gw": 1735, "gwout": 1257, "wan": 2427},
}
CORNER_PINS = {
    "fft/unoptimized": {
        "runtimes": "c82c12d43bd22a6138b1f39337ab26d2f42ae403",
        "iterations": "97126e923d9c8c02aedf7cc1a714b3d08fa9e38b",
        "max_iterations": 18,
        "unconverged": 0,
        "converged": "a93755f8273b0e8dc4b0ecc158e5853119a24bf0",
        "order_changes": {"gw": 173, "gwout": 146, "wan": 255},
    },
    "water/optimized": {
        "runtimes": "b2e04cc7d4694cf9742bea8a89214a706f8a90ab",
        "iterations": "cfe695b7ac2012d26c27df964cd2b14081247b9f",
        "max_iterations": 40,
        "unconverged": 4,
        "converged": "9069ca78e7450a285173431b3e52c5c25299e473",
        "order_changes": {"cpu": 4602, "gw": 640, "gwout": 617,
                          "nic": 2735, "wan": 1416},
    },
}


def test_fft_paper_grid_is_bitwise_pinned():
    result = adaptive_program("fft", "unoptimized").price_grid_adaptive(
        grids.BANDWIDTHS_MBYTE_S, grids.LATENCIES_MS)
    assert result.all_converged and result.max_iterations == 30
    assert result_digest(result) == FFT_GRID_PIN


@pytest.mark.parametrize("app,variant", [("fft", "unoptimized"),
                                         ("water", "optimized")])
def test_corner_points_are_bitwise_pinned(app, variant):
    digest = corner_digest(app, variant)
    assert digest == CORNER_PINS[f"{app}/{variant}"]
    if app == "water":      # never converges: every point at the cap
        assert digest["unconverged"] == 4
        assert digest["max_iterations"] == DEFAULT_MAX_ITERS


def test_interleaved_point_counts_read_no_stale_buffer():
    """P = 4, 1, 42 on one adaptive program (the ladder's walk), the
    thread's workspace poisoned between calls."""
    def poison():
        if program_module._WORKSPACE.buf is not None:
            program_module._WORKSPACE.buf.fill(float("nan"))

    recording = record_app("fft", "unoptimized")
    prog = compile_dag(recording.dag, recording.topology, adaptive=True)
    bws, lats = grids.BANDWIDTHS_MBYTE_S, grids.LATENCIES_MS
    poison()
    anchor = prog.price_adaptive(recording.topology)
    for _ in range(2):
        poison()
        assert result_digest(prog.price_points_adaptive(
            corner_points(bws, lats))) == CORNER_PINS["fft/unoptimized"]
        poison()
        assert prog.price_adaptive(recording.topology) == anchor
        poison()
        assert result_digest(prog.price_grid_adaptive(bws, lats)) == \
            FFT_GRID_PIN
    assert not hasattr(prog, "_plan")       # nothing pinned to the program


@pytest.mark.parametrize("bws,lats,named", [
    ([0.0, 1.0], [1.0], "bandwidth 0.0"),
    ([1.0], [float("nan")], "latency nan"),
])
def test_adaptive_entry_points_refuse_unpriceable_axes(bws, lats, named):
    """The shared axis helper refuses before any iteration is spent
    (a zero bandwidth used to burn the whole cap on a nan column)."""
    prog = adaptive_program("fft", "unoptimized")
    with pytest.raises(ValueError, match=named):
        prog.price_grid_adaptive(bws, lats)
    with pytest.raises(ValueError, match=named):
        prog.price_points_adaptive([(bws[0], lats[0])])
    with pytest.raises(ValueError, match="loss rate 0.5"):
        prog.price_adaptive(grids.multi_cluster(1.0, 1.0), loss_rate=0.5)
    assert prog.price_grid_adaptive([], [1.0]).runtimes.shape == (1, 0)


# ----------------------------------------------------------------------
# Bounded point blocks: the plan never outgrows PLAN_BYTES, and the
# blocks change no bit
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fft_program():
    return adaptive_program("fft", "unoptimized")


@pytest.fixture
def blocks(monkeypatch):
    """The point count of every block ``_iterate`` ran, in order."""
    seen = []
    iterate = AdaptiveProgram._iterate

    def counting(self, params, *args):
        seen.append(params.shape[1])
        return iterate(self, params, *args)
    monkeypatch.setattr(AdaptiveProgram, "_iterate", counting)
    return seen


@pytest.mark.parametrize("chunk_bytes", [1, 1 << 40],
                         ids=["level-per-chunk", "one-chunk"])
def test_chunk_size_changes_no_bit(fft_program, monkeypatch, chunk_bytes):
    """Each sweep of the fixed point prices its edge costs chunk by
    chunk; a chunk per level or one chunk changes no bit of the grid."""
    monkeypatch.setattr(program_module, "CHUNK_BYTES", chunk_bytes)
    result = fft_program.price_grid_adaptive(grids.BANDWIDTHS_MBYTE_S,
                                             grids.LATENCIES_MS)
    assert result_digest(result) == FFT_GRID_PIN


def test_paper_grid_keeps_the_workspace_within_the_plan_budget(
        fft_program, monkeypatch):
    """The plans are carved from a workspace of the call's own: once the
    paper grid is priced the thread's workspace holds no plan, and no
    plan the call carved exceeds PLAN_BYTES."""
    carved = []
    carve = program_module._Workspace.carve

    def counting(workspace, *specs):
        carved.append((workspace, 8 * sum(workspace.words(specs))))
        return carve(workspace, *specs)
    monkeypatch.setattr(program_module._Workspace, "carve", counting)
    monkeypatch.setattr(program_module._WORKSPACE, "buf", None)
    result = fft_program.price_grid_adaptive(grids.BANDWIDTHS_MBYTE_S,
                                             grids.LATENCIES_MS)
    assert result_digest(result) == FFT_GRID_PIN
    assert program_module._WORKSPACE.buf is None
    assert carved and all(workspace is not program_module._WORKSPACE
                          for workspace, _ in carved)
    assert max(size for _, size in carved) <= adaptive_module.PLAN_BYTES


def flat_digest(results):
    """Runtimes to the bit, converged flags and iterations of
    ``results`` in order, and their summed order changes."""
    changes = {}
    for result in results:
        for kind, n in result.order_changes.items():
            changes[kind] = changes.get(kind, 0) + n
    return ([float(x).hex() for r in results for x in r.runtimes.ravel()],
            [bool(x) for r in results for x in r.converged.ravel()],
            [int(x) for r in results for x in r.iterations.ravel()],
            changes)


def one_call_per_point(prog, points):
    """:func:`flat_digest` of one call per ``(bandwidth, latency, loss
    rate)`` point."""
    return flat_digest([prog.price_points_adaptive([(bw, lat)], rate)
                        for bw, lat, rate in points])


def test_blocked_grids_match_one_call_per_point(fft_program, monkeypatch,
                                                blocks):
    prog = fft_program
    monkeypatch.setattr(adaptive_module, "PLAN_BYTES", 6 << 20)
    assert prog._block_points() == 4                # 1.5 MB a point
    bws, lats = (6.3, 0.95, 0.1), (0.5, 10.0, 300.0)
    grid = prog.price_grid_adaptive(bws, lats)
    assert blocks == [3, 3, 3]
    points = [(bw, lat, 0.0) for lat in lats for bw in bws]
    assert flat_digest([grid]) == one_call_per_point(prog, points)

    rates = (0.0, 0.01, 0.05, 0.2)
    blocks.clear()
    lossy = prog.price_grid_adaptive(bws[:2], lats[:2], loss_rates=rates)
    assert lossy.runtimes.shape == (4, 2, 2) and blocks == [4, 4, 4, 4]
    points = [(bw, lat, rate) for rate in rates
              for lat in lats[:2] for bw in bws[:2]]
    assert flat_digest([lossy]) == one_call_per_point(prog, points)


def test_empty_axes_price_to_empty_arrays(fft_program):
    empty = fft_program.price_grid_adaptive([], [1.0], loss_rates=[0.0, 0.1])
    assert empty.runtimes.shape == empty.iterations.shape == (2, 1, 0)
    assert empty.order_changes == {} and empty.all_converged
    assert fft_program.price_points_adaptive([]).runtimes.shape == (0,)


def test_a_budget_below_one_point_prices_one_point_per_block(
        fft_program, monkeypatch, blocks):
    monkeypatch.setattr(adaptive_module, "PLAN_BYTES", 1)
    assert fft_program._block_points() == 1
    corners = corner_points(grids.BANDWIDTHS_MBYTE_S, grids.LATENCIES_MS)
    result = fft_program.price_points_adaptive(corners)
    assert blocks == [1, 1, 1, 1]
    assert result_digest(result) == CORNER_PINS["fft/unoptimized"]
