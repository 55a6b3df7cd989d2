"""Cross-checking what-if predictions against ground-truth simulation.

Cornebize & Legrand's lesson on simulation-based sensitivity analysis is
that predictions are trustworthy only when validated against ground
truth.  The validator samples a few grid points (by default the four
corners of the requested bandwidth x latency grid — the extremes where a
recorded DAG is most likely to break), runs the full simulation there,
and compares the *relative speedup* both paths produce.  Errors are
reported in percentage points of the paper's y-axis.  When the worst
error exceeds the tolerance — or the recording itself is flagged
timing-sensitive — the caller must fall back to full simulation; the
:class:`~repro.experiments.runner.Sweeper` does this automatically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..experiments.runner import relative_speedup_pct
from .evaluate import EvaluationError, Evaluator
from .record import Recording

#: Default maximum |predicted - simulated| relative speedup, in percentage
#: points, before the grid falls back to full simulation.
DEFAULT_TOLERANCE_PP = 5.0


@dataclass
class ValidationPoint:
    """Prediction vs ground truth at one sampled grid point."""

    bandwidth_mbyte_s: float
    latency_ms: float
    predicted_runtime: float
    simulated_runtime: float
    predicted_speedup_pct: float
    simulated_speedup_pct: float

    @property
    def error_pp(self) -> float:
        """|predicted - simulated| relative speedup, percentage points."""
        return abs(self.predicted_speedup_pct - self.simulated_speedup_pct)


@dataclass
class ValidationReport:
    """Outcome of validating one recording over sampled grid points."""

    app: str
    variant: str
    tolerance_pp: float
    points: List[ValidationPoint] = field(default_factory=list)
    fallback: bool = False
    reason: str = "ok"

    @property
    def max_error_pp(self) -> float:
        return max((p.error_pp for p in self.points), default=0.0)

    def summary(self) -> str:
        if self.fallback:
            return (f"{self.app}/{self.variant}: FALLBACK to full simulation "
                    f"({self.reason})")
        return (f"{self.app}/{self.variant}: predictions valid, max error "
                f"{self.max_error_pp:.2f} pp over {len(self.points)} sampled "
                f"points (tolerance {self.tolerance_pp:g} pp)")


def corner_points(bandwidths: Sequence[float],
                  latencies: Sequence[float]) -> List[Tuple[float, float]]:
    """The four corners of a grid — the default validation sample."""
    bws = sorted(bandwidths)
    lats = sorted(latencies)
    corners = [(bws[-1], lats[0]), (bws[-1], lats[-1]),
               (bws[0], lats[0]), (bws[0], lats[-1])]
    seen, out = set(), []
    for p in corners:
        if p not in seen:
            seen.add(p)
            out.append(p)
    return out


def validate(
    recording: Recording,
    baseline_runtime: float,
    simulate: Callable[[float, float], float],
    points: Sequence[Tuple[float, float]],
    tolerance_pp: float = DEFAULT_TOLERANCE_PP,
    evaluator: Optional[Evaluator] = None,
    topology_for: Optional[Callable[[float, float], "object"]] = None,
) -> ValidationReport:
    """Validate ``recording`` at ``points``; decide whether to fall back.

    ``simulate(bw, lat)`` must return the ground-truth multi-cluster
    runtime at a grid point (the Sweeper passes its cache-aware runner);
    ``baseline_runtime`` is the all-Myrinet T_L the speedups are relative
    to.  ``topology_for(bw, lat)`` builds the evaluation topology and
    defaults to the paper's 4x8 grid point.
    """
    report = ValidationReport(app=recording.app, variant=recording.variant,
                              tolerance_pp=tolerance_pp)
    if recording.timing_sensitive:
        report.fallback = True
        report.reason = ("timing-sensitive recording: "
                         + "; ".join(recording.sensitive_reasons))
        return report

    if topology_for is None:
        from ..experiments import grids

        def topology_for(bw: float, lat: float):
            return grids.multi_cluster(
                bw, lat,
                clusters=len(recording.dag.cluster_sizes),
                cluster_size=recording.dag.cluster_sizes[0])

    if evaluator is None:
        evaluator = Evaluator(recording.dag)

    for bw, lat in points:
        try:
            predicted = evaluator.evaluate(topology_for(bw, lat))
        except EvaluationError as err:
            report.fallback = True
            report.reason = f"evaluation failed at ({bw}, {lat}): {err}"
            return report
        simulated = simulate(bw, lat)
        report.points.append(ValidationPoint(
            bandwidth_mbyte_s=bw,
            latency_ms=lat,
            predicted_runtime=predicted,
            simulated_runtime=simulated,
            predicted_speedup_pct=relative_speedup_pct(
                baseline_runtime, predicted),
            simulated_speedup_pct=relative_speedup_pct(
                baseline_runtime, simulated),
        ))

    if report.max_error_pp > tolerance_pp:
        report.fallback = True
        report.reason = (f"max relative-speedup error "
                         f"{report.max_error_pp:.2f} pp exceeds tolerance "
                         f"{tolerance_pp:g} pp")
    return report
