"""Compiler correctness: exactness at the anchor, guards, reductions.

The one property the compilation step must never lose: priced at the
*same* topology it was compiled against, the program is the evaluator —
every contention order it froze is the order the evaluator would have
resolved.  Any disagreement there is a compiler bug, not an
approximation (frozen-order drift only appears *away* from the anchor,
and is the probe's job to measure).
"""

import hashlib
import json
from functools import lru_cache

import pytest

from repro.experiments import grids
from repro.replay.compile import (CompileError, _Circuit, _Cost,
                                  _WideBandwidth, compile_dag,
                                  compile_recording)
from repro.whatif.evaluate import Evaluator
from repro.whatif.record import REFERENCE_POINT, record_app

ANCHOR_COMBOS = [
    ("asp", "optimized"),
    ("water", "unoptimized"),
    ("fft", "unoptimized"),
    ("barnes", "optimized"),
]


@pytest.mark.parametrize("app,variant", ANCHOR_COMBOS)
def test_exact_at_reference_anchor(app, variant):
    recording = record_app(app, variant)
    program = compile_recording(recording)
    evaluated = Evaluator(recording.dag).evaluate(recording.topology)
    priced = program.price(recording.topology)
    assert priced == pytest.approx(evaluated, rel=1e-9)


def test_exact_at_arbitrary_anchor():
    """Compiled at any grid point, exact at that point — the property
    that makes the corner probe a pure frozen-order measurement."""
    recording = record_app("asp", "optimized")
    evaluator = Evaluator(recording.dag)
    for bw, lat in [(0.03, 300.0), (6.3, 300.0), (0.03, 0.5)]:
        topo = grids.multi_cluster(bw, lat)
        program = compile_dag(recording.dag, topo)
        assert program.price(topo) == pytest.approx(
            evaluator.evaluate(topo), rel=1e-9)


def test_timing_sensitive_recording_refused():
    recording = record_app("tsp", "optimized")
    assert recording.timing_sensitive
    with pytest.raises(CompileError) as err:
        compile_recording(recording)
    assert "timing" in str(err.value)


def test_program_shape_and_reductions():
    recording = record_app("asp", "optimized")
    program = compile_recording(recording)
    stats = program.stats()
    assert stats["nodes"] > 0
    assert 0 < stats["levels"] <= stats["nodes"]
    # The dominance/zero reductions must actually fire — an asp DAG has
    # thousands of same-node and root-zero joins.
    assert stats["joins_reduced"] > 0
    assert stats["num_messages"] == recording.dag.num_messages


# ----------------------------------------------------------------------
# The stamp algebra the walk is instantiated with
# ----------------------------------------------------------------------
def test_reduced_joins_return_the_operand_itself():
    """Dominance and root-zero reductions hand back the operand object,
    not a copy: the adaptive compile tells a constrained daemon seed
    from an idle one with ``seed is not zero``."""
    circuit = _Circuit()
    zero = circuit.zero
    late = circuit.node(zero, zero, 2.0) + 0.5
    assert circuit.join(zero, late) is late          # root-zero, left
    assert circuit.join(late, zero) is late          # root-zero, right
    assert circuit.join(zero, zero) is zero
    later = late + 0.25
    assert circuit.join(late, later) is later        # same node, dominated
    assert circuit.join(later, late) is later
    assert circuit.joins_reduced == 5
    nodes = len(circuit.pa)
    # neither offset dominates, and different nodes: a node each
    crossed = circuit.join(late + _Cost(1.0, (0.0, 8.0, 0.0, 0.0)), later)
    other = circuit.join(circuit.node(zero, zero, 1.0), late)
    assert (crossed.node, other.node) == (nodes, nodes + 2)
    assert crossed.row == other.row == (0.0, 0.0, 0.0, 0.0)
    assert float(crossed) == 3.5 and float(other) == 2.5
    assert circuit.joins_reduced == 5


def test_stamp_plus_extends_the_right_coefficients():
    circuit = _Circuit()
    stamp = circuit.node(circuit.zero, circuit.zero, 1.0)
    wide_bw = _WideBandwidth(4.0)
    wide_lat = _Cost(0.5, (0.0, 0.0, 1.0, 1.0))

    moved = stamp + 0.25                 # a grid-constant cost
    assert (float(moved), moved.node, moved.row) == \
        (1.25, stamp.node, (0.25, 0.0, 0.0, 0.0))
    wired = moved + 8.0 / wide_bw        # one WAN wire transfer
    assert (float(wired), wired.node, wired.row) == \
        (3.25, stamp.node, (0.25, 8.0, 0.0, 0.0))
    landed = wired + wide_lat            # one WAN propagation
    assert (float(landed), landed.row) == (3.75, (0.25, 8.0, 1.0, 1.0))
    assert landed.flat() == (stamp.node, 0.25, 8.0, 1.0, 1.0)
    assert (stamp.row, float(stamp)) == ((0.0,) * 4, 1.0)   # untouched
    assert (wide_bw.bytes, wide_bw.traversals) == (8.0, 1)
    # a float on the left must not silently drop the symbolic half
    assert (0.25 + stamp).row == moved.row


def test_equal_reference_times_order_by_seq():
    """Heap entries are ``(time, seq, ...)``: stamps compare as their
    reference times, natively, and a tie falls through to ``seq``."""
    circuit = _Circuit()
    first = circuit.zero + 1.0
    second = circuit.node(first, first, 1.0)
    assert first == second and not first < second
    ordered = sorted([(second, 1), (first, 0)])
    assert ordered[0][0] is first and ordered[1][0] is second
    assert (first, 7) < (second + 0.5, 0)


# ----------------------------------------------------------------------
# Byte identity with the parent of the one-walk refactor
# ----------------------------------------------------------------------
# Digests generated at commit aae63b1, when ``compile.py`` still carried
# its own copy of the schedule walk: the shared walk must emit the same
# programs byte for byte and the same floats bit for bit.
@lru_cache(maxsize=1)      # rows are grouped by app/variant
def _recording(app, variant):
    return record_app(app, variant)


_SITES = {
    "anchor": lambda recording: recording.topology,
    "off-anchor": lambda recording: grids.multi_cluster(0.03, 300.0),
    "star": lambda recording: grids.multi_cluster(*REFERENCE_POINT,
                                                  wan_shape="star"),
    "ring": lambda recording: grids.multi_cluster(*REFERENCE_POINT,
                                                  wan_shape="ring"),
}

PROGRAM_FINGERPRINTS = [
    ("water", "unoptimized", "anchor", False,
     "2ca3823c6dbc92ad9ba8da6023a8b14be3b74fa5"),
    ("water", "unoptimized", "anchor", True,
     "4ea506df92a968120a30d5acfae03c723bebfe9c"),
    ("water", "unoptimized", "off-anchor", False,
     "3a85fedaad20a4cfeae2bf74f9866650ef4abbc4"),
    ("water", "unoptimized", "off-anchor", True,
     "87f3a2482e3de354eff30e85ec26ff132bfff161"),
    ("water", "unoptimized", "star", False,
     "d1182bb8b8af5ba75f163ef832951d1170dd4c03"),
    ("water", "unoptimized", "star", True,
     "cf0c19120c5ef47c7ed683bf1bc163c48a84d9b9"),
    ("water", "unoptimized", "ring", False,
     "db12899def9a62193881693cd2f177476eadd41c"),
    ("water", "unoptimized", "ring", True,
     "3a603af985f7826ab80d72081b335154bee69ffb"),
    ("water", "optimized", "anchor", False,
     "6e3d52e3dc164bb27375c79772302865f31c7828"),
    ("water", "optimized", "anchor", True,
     "3e98ab198f0d5724f538a3feb4b0f966409b1742"),
    ("barnes", "unoptimized", "anchor", False,
     "25f4e299cb8b4c2d62be64d5bcb47d757e69fedf"),
    ("barnes", "unoptimized", "anchor", True,
     "2a0b34a72f03ae0bacb43e54910bc62cb19adaa6"),
    ("barnes", "optimized", "anchor", False,
     "a5c090fcbb388d4c0560ef4c204349fc171dae4b"),
    ("barnes", "optimized", "anchor", True,
     "a23108d4469dfbdcfca7db4792698513821e1c48"),
    ("asp", "unoptimized", "anchor", False,
     "8b2c0a820f2e6ee5f7e129722b19d5f6e32eee15"),
    ("asp", "unoptimized", "anchor", True,
     "36127bff40509e16915fa4d7cb9bad6ba9ca0234"),
    ("asp", "optimized", "anchor", False,
     "7978359837a6f8c1660319a8b1f0434ccf304d39"),
    ("asp", "optimized", "anchor", True,
     "50251310c13cb456383f980f1bde9410b4bed326"),
    ("asp", "optimized", "off-anchor", False,
     "28727d62da50be3755a4aefa801b6d7a23f83637"),
    ("asp", "optimized", "off-anchor", True,
     "fa22aaf8e412bd1345a802793b600e23ae7c5c32"),
    ("asp", "optimized", "star", False,
     "51cd3a298b81957e485d9ed903772fefba437cc9"),
    ("asp", "optimized", "star", True,
     "47504488b86546b081732bf9409a89117a44026f"),
    ("asp", "optimized", "ring", False,
     "075233849ce0478e4f8b9fdaf694a551d8402cf8"),
    ("asp", "optimized", "ring", True,
     "f538e2baf862182c716e1adc4dbc3dc8ae529591"),
    ("fft", "unoptimized", "anchor", False,
     "10a4d1e0c3d8e553e49975e9516e7112f41a8f57"),
    ("fft", "unoptimized", "anchor", True,
     "930109c2cab966057d9cf64caef764f6fa789386"),
    ("fft", "optimized", "anchor", False,
     "10a4d1e0c3d8e553e49975e9516e7112f41a8f57"),
    ("fft", "optimized", "anchor", True,
     "930109c2cab966057d9cf64caef764f6fa789386"),
]


@pytest.mark.parametrize("app,variant,site,adaptive,digest",
                         PROGRAM_FINGERPRINTS)
def test_program_is_byte_identical_to_the_parent(app, variant, site,
                                                 adaptive, digest):
    recording = _recording(app, variant)
    program = compile_dag(recording.dag, _SITES[site](recording),
                          adaptive=adaptive)
    record = json.dumps(program.to_record(), sort_keys=True)
    assert hashlib.sha1(record.encode()).hexdigest() == digest


EVALUATE_FINGERPRINTS = [
    ("water", "unoptimized", "704592e93f94e6962e24503c2879688141d0640c"),
    ("water", "optimized", "e292719479b55fd5dbe70d054b531cab1073fbeb"),
    ("barnes", "unoptimized", "644910fc0aed9e170b4616d51eba15673b255f45"),
    ("barnes", "optimized", "12ac097590a6e850f40102b32743edcacf3bf518"),
    ("asp", "unoptimized", "a73618bf9b709b4a845e305ce0050780b0344845"),
    ("asp", "optimized", "435551dab9c44840573571d9ba670eecd97850d6"),
    ("fft", "unoptimized", "139821025c8658ec180f5bc9e89cf9111369593f"),
    ("fft", "optimized", "139821025c8658ec180f5bc9e89cf9111369593f"),
]


@pytest.mark.parametrize("app,variant,digest", EVALUATE_FINGERPRINTS)
def test_evaluate_is_repr_identical_to_the_parent(app, variant, digest):
    """The float instance of the walk, over the paper grid on all three
    WAN shapes: one sha1 over the 126 ``repr``s."""
    evaluator = Evaluator(_recording(app, variant).dag)
    sha = hashlib.sha1()
    for shape in ("full", "star", "ring"):
        for lat in grids.LATENCIES_MS:
            for bw in grids.BANDWIDTHS_MBYTE_S:
                sha.update(repr(evaluator.evaluate(grids.multi_cluster(
                    bw, lat, wan_shape=shape))).encode())
    assert sha.hexdigest() == digest


def test_program_rejects_foreign_topology():
    recording = record_app("asp", "optimized")
    program = compile_recording(recording)
    with pytest.raises(ValueError):
        program.price(grids.multi_cluster(0.95, 3.3, clusters=2,
                                          cluster_size=16))
    with pytest.raises(ValueError):
        program.price(grids.baseline())
