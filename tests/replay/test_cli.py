"""The analytic front end: one command line, one ``Decision`` to read.

``whatif`` and ``replay`` are one ``main`` entered at two rungs, so the
end-to-end checks go through :func:`repro.__main__.main` — the command
name is the switch.  The ``Decision`` pricing is unit-tested with stub
pricers: what downgrades, to what, and that the loss axis never does.
"""

import pytest

from repro.__main__ import main
from repro.replay.ladder import Decision, Pricer
from repro.whatif.evaluate import EvaluationError
from repro.whatif.validate import ValidationReport

CORNER_ROWS = [("6.3", "0.5"), ("6.3", "300"), ("0.03", "0.5"),
               ("0.03", "300")]


def run(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def corner_rows(out):
    """(bw, lat) of the rows of the corner-validation table in ``out``."""
    table = out.split("Validation at grid corners")[1]
    return [tuple(cell.strip() for cell in line.split("|")[:2])
            for line in table.splitlines() if line.endswith(" pp")]


def usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as exit_info:
        main(list(argv))
    assert exit_info.value.code == 2
    return capsys.readouterr().err


# ----------------------------------------------------------------------
# python -m repro whatif | replay
# ----------------------------------------------------------------------
@pytest.mark.parametrize("command,rung", [("whatif", "predict"),
                                          ("replay", "replay")])
def test_both_command_names_walk_the_ladder(capsys, command, rung):
    out = run(capsys, command, "asp")
    assert "ASP optimized — relative speedup" in out
    assert f"[{command}] mode: {rung}" in out
    assert f"[{command}] validation: asp/optimized: predictions valid" in out
    assert ("[replay] probe: order-stable" in out) == (command == "replay")
    assert corner_rows(out) == CORNER_ROWS


def test_fft_optimized_resolves_to_the_only_variant(capsys):
    out = run(capsys, "replay", "fft", "--variant", "optimized")
    assert out.startswith(
        "note: fft has no optimized variant; using unoptimized")
    assert "FFT unoptimized — relative speedup" in out
    assert "[replay] mode: vectorized-adaptive" in out
    assert "[replay] convergence: adaptive-converged" in out


def test_loss_outside_the_model_is_a_usage_error(capsys):
    err = usage_error(capsys, "replay", "asp", "--loss", "0.7")
    assert "[0, 0.5)" in err
    assert "Traceback" not in err


# ----------------------------------------------------------------------
# python -m repro figure3 --backend
# ----------------------------------------------------------------------
def test_figure3_backend_prints_the_verdict(capsys):
    out = run(capsys, "figure3", "--apps", "asp", "--variant", "optimized",
              "--backend", "predict")
    assert "[predict] mode: predict" in out
    assert "[predict] validation: asp/optimized: predictions valid" in out


@pytest.mark.parametrize("argv,fragment", [
    (["figure3", "--predict"], "unrecognized arguments: --predict"),
    (["figure4", "--replay"], "unrecognized arguments: --replay"),
    (["figure3", "--apps", "bogus"], "invalid choice: 'bogus'"),
    (["replay", "asp", "--tolerance-pp", "1"],
     "unrecognized arguments: --tolerance-pp"),
    (["whatif", "asp", "--tolerance-pp", "1"],
     "unrecognized arguments: --tolerance-pp"),
])
def test_retired_flags_and_unknown_apps_are_usage_errors(capsys, argv,
                                                         fragment):
    assert fragment in usage_error(capsys, *argv)


# ----------------------------------------------------------------------
# Decision pricing: the one per-point downgrade
# ----------------------------------------------------------------------
BWS, LATS = (6.3, 0.95, 0.03), (0.5, 30.0)
HOLE = (0.95, 30.0)             # the point the stub rung cannot price


class StubEvaluator:
    @staticmethod
    def evaluate(topology):
        return 1000.0 + topology[0]


def stub_decision():
    def point(topology):
        if topology == HOLE:
            raise EvaluationError("unconverged")
        return topology[0] + topology[1]

    def grid(bandwidths, latencies, loss_rates=None):
        rows = [[None if (bw, lat) == HOLE else bw + lat
                 for bw in bandwidths] for lat in latencies]
        return rows if loss_rates is None else [rows for _ in loss_rates]

    return Decision(
        "vectorized-adaptive",
        ValidationReport(app="stub", variant="optimized", tolerance_pp=5.0),
        {}, Pricer(point, grid), topology_for=lambda bw, lat: (bw, lat),
        evaluator=StubEvaluator())


def test_price_grid_downgrades_only_the_unpriced_point():
    runtimes, downgraded = stub_decision().price_grid(BWS, LATS)
    assert list(runtimes) == [(bw, lat) for lat in LATS for bw in BWS]
    assert downgraded == [HOLE]
    assert runtimes.pop(HOLE) == 1000.95      # the evaluator's price
    assert all(runtime == bw + lat for (bw, lat), runtime in runtimes.items())


def test_price_point_downgrades_on_evaluation_error():
    decision = stub_decision()
    assert decision.price_point(*HOLE) == 1000.95
    assert decision.price_point(6.3, 0.5) == 6.8


def test_the_loss_axis_never_downgrades():
    runtimes, downgraded = stub_decision().price_grid(BWS, LATS,
                                                      loss_rate=0.01)
    assert downgraded == []
    assert runtimes.pop(HOLE) is None
    assert all(runtime == bw + lat for (bw, lat), runtime in runtimes.items())


def test_summary_is_the_rung_the_evidence_and_the_validation():
    class Report:
        @staticmethod
        def summary():
            return "order-stable"

    report = ValidationReport(app="asp", variant="optimized",
                              tolerance_pp=5.0)
    accepted = Decision("replay", report, evidence={"probe": Report()})
    assert accepted.summary() == {
        "mode": "replay", "probe": "order-stable",
        "validation": report.summary()}
    report = ValidationReport(app="tsp", variant="optimized",
                              tolerance_pp=5.0, fallback=True,
                              reason="timing-sensitive recording")
    refused = Decision("simulate", report)
    assert refused.summary() == {
        "mode": "simulate", "validation": report.summary(),
        "fallback_reason": "timing-sensitive recording"}
