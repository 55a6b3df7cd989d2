"""Chaos harness: ``python -m repro chaos <app> [faults...]``.

Runs one application variant on the paper's 4x8 two-layer system with a
:class:`~repro.faults.plan.FaultPlan` assembled from the command line —
WAN packet loss, latency bursts, link outages, gateway crashes — and
reports whether the run survived, at what cost (retransmissions, drops,
runtime overhead), and optionally whether it replays bit-identically.

Exit codes: 0 when the run completes, 1 when it fails with a typed
error (``TransportError``, ``DeadlockError``, event-budget
``TimeoutError``) or a replay check diverges, 2 on usage errors.

Examples::

    python -m repro chaos water --loss 0.01
    python -m repro chaos asp --variant optimized --loss 0.05 --replay-check
    python -m repro chaos fft --outage 0.5:0.2 --spike 0.1:1.0:x3+5
    python -m repro chaos tsp --crash 2:0.4:0.3 --sanitize
    python -m repro chaos barnes --loss 0.2 --no-transport  # expect exit 1
"""

from __future__ import annotations

import argparse
from typing import Optional

from ..apps import run_app
from ..network.topology import das_topology
from ..runtime.machine import DeadlockError
from ..runtime.transport import TransportError
from .plan import (ALL_WAN, FaultPlan, GatewayCrash, LatencyBurst, Outage,
                   PacketLoss, TransportConfig)


def _parse_spike(text: str) -> LatencyBurst:
    """``START:DUR:xFACTOR[+EXTRA_MS][:cvCV]`` -> :class:`LatencyBurst`.

    e.g. ``0.1:1.0:x3+5`` — from t=0.1s for 1s, latency*3 + 5 ms, and
    ``0.0:2.0:x1+0:cv0.3`` — pure jitter with CV 0.3.
    """
    try:
        parts = text.split(":")
        start, duration = float(parts[0]), float(parts[1])
        factor, extra, cv = 1.0, 0.0, 0.0
        for part in parts[2:]:
            if part.startswith("cv"):
                cv = float(part[2:])
            else:
                if "+" in part:
                    head, _, extra_ms = part.partition("+")
                    extra = float(extra_ms) * 1e-3
                else:
                    head = part
                if head:
                    factor = float(head.lstrip("x"))
        return LatencyBurst(ALL_WAN, start=start, duration=duration,
                            factor=factor, extra=extra, jitter_cv=cv)
    except (ValueError, IndexError) as exc:
        raise argparse.ArgumentTypeError(
            f"bad --spike {text!r} (want START:DUR:xFACTOR[+EXTRA_MS][:cvCV])"
        ) from exc


def _parse_outage(text: str) -> Outage:
    """``START:DUR`` -> :class:`Outage` on every WAN link."""
    try:
        start, _, duration = text.partition(":")
        return Outage(ALL_WAN, start=float(start), duration=float(duration))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"bad --outage {text!r} (want START:DUR)") from exc


def _parse_crash(text: str) -> GatewayCrash:
    """``CLUSTER:START:DUR`` -> :class:`GatewayCrash`."""
    try:
        cluster, start, duration = text.split(":")
        return GatewayCrash(int(cluster), start=float(start),
                            duration=float(duration))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"bad --crash {text!r} (want CLUSTER:START:DUR)") from exc


def build_plan(args: argparse.Namespace) -> FaultPlan:
    loss = (PacketLoss(ALL_WAN, args.loss),) if args.loss else ()
    transport: Optional[TransportConfig] = None
    if not args.no_transport:
        transport = TransportConfig(max_retries=args.max_retries)
    return FaultPlan(loss=loss, bursts=tuple(args.spike),
                     outages=tuple(args.outage), crashes=tuple(args.crash),
                     transport=transport)


def _run_once(args: argparse.Namespace, plan: FaultPlan):
    topo = das_topology(args.clusters, args.cluster_size, args.latency_ms,
                        args.bandwidth)
    return run_app(args.app, args.variant, topo, scale=args.scale,
                   seed=args.seed, sanitize=args.sanitize, faults=plan,
                   max_events=args.max_events)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro chaos", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("app", help="application name (e.g. water, asp)")
    parser.add_argument("--variant", default="unoptimized",
                        choices=["unoptimized", "optimized"])
    parser.add_argument("--scale", default="bench", choices=["paper", "bench"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--loss", type=float, default=0.0,
                        help="packet-loss probability on every WAN link")
    parser.add_argument("--spike", type=_parse_spike, action="append",
                        default=[], metavar="START:DUR:xF[+MS][:cvCV]",
                        help="latency burst on every WAN link")
    parser.add_argument("--outage", type=_parse_outage, action="append",
                        default=[], metavar="START:DUR",
                        help="hard outage on every WAN link")
    parser.add_argument("--crash", type=_parse_crash, action="append",
                        default=[], metavar="CLUSTER:START:DUR",
                        help="gateway crash-and-recover for one cluster")
    parser.add_argument("--no-transport", action="store_true",
                        help="disable the reliable transport (lossy runs "
                             "then typically deadlock)")
    parser.add_argument("--max-retries", type=int, default=10)
    parser.add_argument("--bandwidth", type=float, default=1.0,
                        help="WAN MByte/s per link")
    parser.add_argument("--latency-ms", type=float, default=10.0,
                        help="one-way WAN latency")
    parser.add_argument("--clusters", type=int, default=4)
    parser.add_argument("--cluster-size", type=int, default=8)
    parser.add_argument("--max-events", type=int, default=20_000_000,
                        help="engine event budget; exceeded -> exit 1")
    parser.add_argument("--sanitize", action="store_true",
                        help="attach the runtime protocol sanitizer")
    parser.add_argument("--replay-check", action="store_true",
                        help="run twice and require identical results")
    args = parser.parse_args(argv)

    plan = build_plan(args)
    print(f"{args.app} {args.variant} on {args.clusters}x{args.cluster_size} "
          f"@ {args.bandwidth:g} MByte/s, {args.latency_ms:g} ms WAN, "
          f"seed {args.seed}")
    for line in plan.describe():
        print(f"  {line}")
    try:
        result = _run_once(args, plan)
    except (TransportError, DeadlockError, TimeoutError, ValueError) as exc:
        print(f"FAILED: {type(exc).__name__}: {exc}")
        return 2 if isinstance(exc, ValueError) else 1

    print(f"runtime: {result.runtime:.6f} s")
    injector = result.machine.fault_injector
    if injector is not None:
        for key, value in sorted(injector.summary().items()):
            print(f"  {key}: {value}")
    faults_summary = result.traffic_summary().get("faults")
    if faults_summary:
        print(f"  traffic: {faults_summary}")

    if args.replay_check:
        replay = _run_once(args, plan)
        before = repr((result.runtime, result.traffic_summary()))
        after = repr((replay.runtime, replay.traffic_summary()))
        if before != after:
            print("REPLAY MISMATCH:")
            print(f"  first:  {before}")
            print(f"  second: {after}")
            return 1
        print("replay: identical")
    return 0
