"""User-facing surface of the protocol analyzer.

- :func:`analyze` / :func:`analyze_all` — skeletons for registered
  apps (memoized per module set).
- :func:`proto_findings` — the three analyses folded into ordinary
  :class:`~repro.lint.rules.Finding` objects for the lint CLI.
- :func:`classification_table` — the per-app order-stability table.
- :func:`order_stability_label` — the single-label lookup for one
  app/variant (never raises; returns None when analysis is
  unavailable).  The replay ladder does not call it.
- :func:`verify_superset` — the runtime cross-validation harness:
  every observed (src, dst) send pair of a clean run must be permitted
  by the static channel graph.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..rules import Finding, make_finding
from .analyses import (Classification, classify, find_deadlocks,
                       find_taints, find_unmatched)
from .graph import ProtoGraph, Skeleton
from .interp import ModuleSet, analyze_app

_MODSET: Optional[ModuleSet] = None
_SKELETONS: Dict[Tuple[str, str], Skeleton] = {}
_LABELS: Dict[Tuple[str, str], str] = {}


def default_modset(refresh: bool = False) -> ModuleSet:
    """The module set over the installed package sources (cached)."""
    global _MODSET
    if _MODSET is None or refresh:
        _MODSET = ModuleSet.for_repo()
    return _MODSET


def analyze(app: str, variant: str,
            modset: Optional[ModuleSet] = None) -> Skeleton:
    """Static skeleton for one app/variant (memoized for the default
    module set)."""
    if modset is not None:
        return analyze_app(modset, app, variant)
    key = (app, variant)
    if key not in _SKELETONS:
        _SKELETONS[key] = analyze_app(default_modset(), app, variant)
    return _SKELETONS[key]


def analyze_all(modset: Optional[ModuleSet] = None) -> List[Skeleton]:
    """Skeletons for every registered app/variant, sorted."""
    ms = modset if modset is not None else default_modset()
    return [analyze(app, variant, modset=modset)
            for app, variant in ms.apps()]


def classify_all(modset: Optional[ModuleSet] = None
                 ) -> List[Classification]:
    return [classify(s) for s in analyze_all(modset)]


def order_stability_label(app: str, variant: str) -> Optional[str]:
    """The static order-stability label of one app/variant (memoized).

    Defensive by design: a caller must keep working when the static
    analyzer cannot (sources unavailable, unregistered app), so this
    returns ``None`` instead of raising.
    """
    key = (app, variant)
    if key in _LABELS:
        return _LABELS[key]
    try:
        label = classify(analyze(app, variant)).label
    except Exception:
        label = None
    _LABELS[key] = label
    return label


# ----------------------------------------------------------------------
# Findings for the lint CLI
# ----------------------------------------------------------------------

def proto_findings(skeletons: Sequence[Skeleton]) -> List[Finding]:
    """All analyzer findings over ``skeletons`` as lint findings."""
    findings: List[Finding] = []
    for skeleton in skeletons:
        where = f"{skeleton.app}/{skeleton.variant}"
        for cycle in find_deadlocks(skeleton):
            first = cycle.entries[0]
            path, lineno = first["site"]
            findings.append(make_finding(
                "proto-deadlock",
                f"{where}: static wait-for cycle over mandatory receives",
                file=path, line=int(lineno),
                detail={"report": cycle.render()}))
        for unmatched in find_unmatched(skeleton):
            findings.append(make_finding(
                "proto-unmatched", f"{where}: {unmatched.message()}",
                file=unmatched.site[0], line=unmatched.site[1]))
        for flow in find_taints(skeleton):
            findings.append(make_finding(
                "proto-taint", f"{where}: {flow.message()}",
                file=flow.site[0], line=flow.site[1]))
    return findings


def classification_table(classifications: Sequence[Classification]
                         ) -> str:
    """Render the per-app order-stability table."""
    rows = [("app", "variant", "label", "evidence")]
    for c in classifications:
        why = c.reasons[0] if c.reasons else \
            "paired tagged channels and collectives only"
        rows.append((c.app, c.variant, c.label, why))
    widths = [max(len(row[i]) for row in rows) for i in range(3)]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join([row[0].ljust(widths[0]),
                                row[1].ljust(widths[1]),
                                row[2].ljust(widths[2]),
                                row[3]]).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths) + "  " + "-" * 8)
    return "\n".join(lines)


def graphs_json(skeletons: Sequence[Skeleton]) -> Dict[str, Any]:
    """JSON export of every skeleton's channel graph + classification."""
    out: Dict[str, Any] = {"kind": "protograph", "apps": []}
    for skeleton in skeletons:
        label = classify(skeleton)
        entry = skeleton.graph().to_json()
        entry["label"] = label.label
        entry["reasons"] = label.reasons
        out["apps"].append(entry)
    return out


def graphs_dot(skeletons: Sequence[Skeleton]) -> str:
    """Concatenated DOT digraphs, one per app/variant."""
    return "\n".join(s.graph().to_dot() for s in skeletons)


# ----------------------------------------------------------------------
# Runtime cross-validation: static graph ⊇ observed traffic
# ----------------------------------------------------------------------

class _PairCollector:
    """Probe-bus subscriber collecting observed (src, dst) send pairs."""

    def __init__(self) -> None:
        self.pairs: Set[Tuple[int, int]] = set()

    def on_send(self, ev) -> None:
        self.pairs.add((ev.src, ev.dst))

    def on_op(self, ev) -> None:
        if ev.kind == "send" and isinstance(ev.dst, int):
            self.pairs.add((ev.rank, ev.dst))
        elif ev.kind == "multicast":
            for dst in (ev.dst or ()):
                self.pairs.add((ev.rank, dst))


def observed_pairs(app: str, variant: str, topology,
                   scale: str = "bench", seed: int = 0):
    """Run the app and collect every observed (src, dst) send pair plus
    the :class:`~repro.network.stats.TrafficStats` cluster-pair matrix."""
    from ...apps import run_app
    from ...obs.bus import ProbeBus

    bus = ProbeBus()
    collector = _PairCollector()
    bus.attach(collector)
    result = run_app(app, variant, topology, scale=scale, seed=seed,
                     bus=bus)
    cluster_pairs = set(result.stats.pair.keys())
    return collector.pairs, cluster_pairs


def verify_superset(app: str, variant: str, topology,
                    scale: str = "bench", seed: int = 0,
                    modset: Optional[ModuleSet] = None) -> Dict[str, Any]:
    """Assert the static channel graph covers one clean run's traffic.

    Returns a report dict; ``report["ok"]`` is True when every observed
    rank pair and every TrafficStats cluster pair is inside the static
    concretization.  This is the soundness contract of the analyzer:
    widening may over-approximate, never under-approximate.
    """
    skeleton = analyze(app, variant, modset=modset)
    graph = ProtoGraph.from_skeleton(skeleton)
    static_pairs = graph.concretize(topology)
    static_cluster = graph.cluster_pairs(topology)
    observed, observed_cluster = observed_pairs(
        app, variant, topology, scale=scale, seed=seed)
    missing_pairs = sorted(observed - static_pairs)
    missing_cluster = sorted(observed_cluster - static_cluster)
    return {
        "app": app,
        "variant": variant,
        "ok": not missing_pairs and not missing_cluster,
        "observed_pairs": len(observed),
        "static_pairs": len(static_pairs),
        "missing_pairs": missing_pairs,
        "missing_cluster_pairs": missing_cluster,
        "incomplete": skeleton.incomplete,
    }
