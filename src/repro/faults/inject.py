"""Compiling a :class:`~repro.faults.plan.FaultPlan` into live injection.

A :class:`FaultInjector` is built by the :class:`~repro.runtime.machine.
Machine` when a plan is passed, *after* the router exists: directives are
matched (``fnmatch``) against the actual WAN link names, per-link fault
state is attached to the :class:`~repro.network.link.Link` objects (for
latency bursts) and to the router (for drop decisions), and every
finite outage/crash window gets engine timers that publish
``fault_link`` up/down transitions on the probe bus.

Determinism: every random decision draws from a per-link
``random.Random`` derived via :func:`repro.sim.rng.make_rng` with the
machine seed and the stable key ``"fault:<link-name>"``, and draws are
consumed in engine event order — so the same seed and plan replay to
bit-identical results, and adding a fault stream for one link never
perturbs another link's stream.
"""

from __future__ import annotations

import math
from fnmatch import fnmatchcase
from functools import partial
from typing import Dict, List, Tuple

from ..obs.events import FaultDropEvent, FaultLinkEvent, FaultSpikeEvent
from ..sim.rng import make_rng
from .plan import FaultPlan

Window = Tuple[float, float]  # (start, end)


def _window(start: float, duration: float) -> Window:
    return (start, math.inf if math.isinf(duration) else start + duration)


def _in_any(windows: List[Window], when: float) -> bool:
    for start, end in windows:
        if start <= when < end:
            return True
    return False


class LinkFaultState:
    """Per-WAN-link compiled fault schedule (drop windows + bursts)."""

    __slots__ = ("name", "outages", "loss", "bursts", "rng", "bus",
                 "drops", "spikes")

    def __init__(self, name: str, seed: int, bus) -> None:
        self.name = name
        #: outage windows, in plan order
        self.outages: List[Window] = []
        #: loss windows with probability: (start, end, p), in plan order
        self.loss: List[Tuple[float, float, float]] = []
        #: burst windows: (start, end, factor, extra, jitter_cv)
        self.bursts: List[Tuple[float, float, float, float, float]] = []
        self.rng = make_rng(seed, f"fault:{name}")
        self.bus = bus
        self.drops = 0
        self.spikes = 0

    # -- drop decisions (router hook) ----------------------------------
    def drop_reason(self, when: float):
        """``"outage"``/``"loss"``/None for a message hitting the wire."""
        if _in_any(self.outages, when):
            return "outage"
        for start, end, probability in self.loss:
            if start <= when < end:
                # One draw per message per lossy wire entry, in engine
                # event order — replays are bit-identical.
                if self.rng.random() < probability:
                    return "loss"
                return None
        return None

    # -- latency adjustment (Link.transfer hook) -----------------------
    def adjust_latency(self, when: float, latency: float, size: int) -> float:
        for start, end, factor, extra, jitter_cv in self.bursts:
            if start <= when < end:
                adjusted = latency * factor + extra
                if jitter_cv > 0.0:
                    # Lognormal with mean 1 and the requested coefficient
                    # of variation, one draw per affected transfer.
                    sigma2 = math.log(1.0 + jitter_cv * jitter_cv)
                    mu = -0.5 * sigma2
                    adjusted *= self.rng.lognormvariate(mu, math.sqrt(sigma2))
                self.spikes += 1
                bus = self.bus
                if bus.want_fault_spike:
                    bus.emit("fault_spike", FaultSpikeEvent(
                        when, self.name, latency, adjusted, size))
                return adjusted
        return latency


class FaultInjector:
    """Live fault state for one machine, compiled from a :class:`FaultPlan`.

    The router consults :meth:`gateway_down` and :meth:`wan_drop` on the
    inter-cluster path (guarded by ``router._faults is not None``, so the
    fault-free hot path is untouched); links with burst windows carry
    their :class:`LinkFaultState` directly.  All drops funnel through
    :meth:`record_drop`, which feeds the ``fault_drop`` probe topic and
    the machine's :class:`~repro.network.stats.TrafficStats` counters.
    """

    def __init__(self, plan: FaultPlan, machine) -> None:
        self.plan = plan
        self.machine = machine
        self.bus = machine.bus
        self.stats = machine.stats
        router = machine.router
        seed = machine.seed

        #: per-(src_cluster, dst_cluster) link fault state (matched links only)
        self.links: Dict[Tuple[int, int], LinkFaultState] = {}
        #: per-cluster gateway crash windows
        self.crashes: Dict[int, List[Window]] = {}
        self.drops = 0
        self.drops_by_reason: Dict[str, int] = {}
        self.drops_by_link: Dict[str, int] = {}

        wan_items = sorted(router._wan.items())
        for pair, link in wan_items:
            state = None
            for d in plan.outages:
                if fnmatchcase(link.name, d.link):
                    state = state or LinkFaultState(link.name, seed, self.bus)
                    state.outages.append(_window(d.start, d.duration))
            for d in plan.loss:
                if fnmatchcase(link.name, d.link):
                    state = state or LinkFaultState(link.name, seed, self.bus)
                    state.loss.append(
                        _window(d.start, d.duration) + (d.probability,))
            for d in plan.bursts:
                if fnmatchcase(link.name, d.link):
                    state = state or LinkFaultState(link.name, seed, self.bus)
                    state.bursts.append(
                        _window(d.start, d.duration)
                        + (d.factor, d.extra, d.jitter_cv))
            if state is not None:
                self.links[pair] = state
                if state.bursts:
                    link.faults = state

        clusters = set(machine.topology.clusters())
        for d in plan.crashes:
            if d.cluster not in clusters:
                raise ValueError(
                    f"GatewayCrash targets cluster {d.cluster}, but the "
                    f"topology has clusters {sorted(clusters)}")
            self.crashes.setdefault(d.cluster, []).append(
                _window(d.start, d.duration))

        router._faults = self
        self._schedule_transitions(machine.engine)

    # ------------------------------------------------------------------
    def _schedule_transitions(self, engine) -> None:
        """Engine timers publishing ``fault_link`` up/down transitions."""
        transitions: List[Tuple[float, str, str]] = []
        for pair in sorted(self.links):
            state = self.links[pair]
            for start, end in state.outages:
                transitions.append((start, state.name, "down"))
                if not math.isinf(end):
                    transitions.append((end, state.name, "up"))
        for cluster in sorted(self.crashes):
            for start, end in self.crashes[cluster]:
                transitions.append((start, f"gw{cluster}", "down"))
                if not math.isinf(end):
                    transitions.append((end, f"gw{cluster}", "up"))
        for when, name, kind in sorted(transitions):
            engine.call_at(when, partial(self._emit_transition, when, name, kind))

    def _emit_transition(self, when: float, name: str, kind: str) -> None:
        if self.bus.want_fault_link:
            self.bus.emit("fault_link", FaultLinkEvent(when, name, kind))

    # ------------------------------------------------------------------
    # Router hooks
    # ------------------------------------------------------------------
    def gateway_down(self, cluster: int, when: float) -> bool:
        windows = self.crashes.get(cluster)
        return windows is not None and _in_any(windows, when)

    def wan_drop(self, src_cluster: int, dst_cluster: int, when: float):
        """Drop reason for a message entering the WAN wire, or None."""
        state = self.links.get((src_cluster, dst_cluster))
        if state is None:
            return None
        reason = state.drop_reason(when)
        if reason is not None:
            state.drops += 1
        return reason

    def record_drop(self, msg, link_name: str, reason: str,
                    when: float) -> None:
        """Account one injected drop and publish it on the probe bus."""
        self.drops += 1
        self.drops_by_reason[reason] = self.drops_by_reason.get(reason, 0) + 1
        self.drops_by_link[link_name] = self.drops_by_link.get(link_name, 0) + 1
        self.stats.fault_drops += 1
        bus = self.bus
        if bus.want_fault_drop:
            bus.emit("fault_drop", FaultDropEvent(
                when, link_name, reason, msg.src, msg.dst, msg.size, msg.tag,
                msg.send_time))

    def detach(self) -> None:
        """Drop the machine once the run is over (:meth:`Machine.seal
        <repro.runtime.machine.Machine.seal>`); the counters stay."""
        self.machine = None

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """Injection accounting for reports and the chaos CLI."""
        return {
            "drops": self.drops,
            "by_reason": {k: self.drops_by_reason[k]
                          for k in sorted(self.drops_by_reason)},
            "by_link": {k: self.drops_by_link[k]
                        for k in sorted(self.drops_by_link)},
            "spikes": sum(self.links[p].spikes for p in sorted(self.links)),
        }


__all__ = ["FaultInjector", "LinkFaultState"]
