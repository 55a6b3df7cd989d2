"""CLIs: ``python -m repro serve`` and ``python -m repro submit``.

``serve`` runs the long-lived service; ``submit`` turns any existing
experiment into servable traffic — it submits one job, streams the
per-point results as they land, and renders the same grid the direct
experiment harnesses print.

Examples::

    # one terminal: the service (4 worker processes, shared cache)
    python -m repro serve --port 8642 --workers 4

    # another: a Figure-3 sweep for Water, streamed point by point
    python -m repro submit water --connect 127.0.0.1:8642

    # the same job again: served ~100% from cache, no simulation
    python -m repro submit water --connect 127.0.0.1:8642

    # chaos and profile traffic through the same front end
    python -m repro submit asp --kind chaos --loss 0.01 --connect ...
    python -m repro submit fft --kind profile --connect ...

    # analytic fast paths: interpreted (whatif) or vectorized (replay)
    python -m repro submit asp --kind replay --connect ...
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import Any, Dict, List, Optional

from ..apps.base import SEED_HELP
from ..experiments import grids

DEFAULT_PORT = 8642


def _csv_floats(text: str) -> List[float]:
    try:
        return [float(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"bad number list {text!r} (want e.g. 6.3,0.95,0.03)") from exc


# ----------------------------------------------------------------------
# python -m repro serve
# ----------------------------------------------------------------------
def serve_main(argv: Optional[list] = None) -> int:
    from ..experiments.cache import DEFAULT_ROOT, SimCache
    from ..obs.report import RunReporter
    from .scheduler import AdmissionPolicy, Scheduler
    from .server import ServeServer

    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Run the sharded simulation-as-a-service front end.")
    parser.add_argument("--host", default="127.0.0.1",
                        help="TCP bind address (default: loopback)")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help=f"TCP port, 0 for ephemeral (default: "
                             f"{DEFAULT_PORT})")
    parser.add_argument("--unix", default=None, metavar="PATH",
                        help="also (or instead) bind a Unix socket")
    parser.add_argument("--no-tcp", action="store_true",
                        help="bind only the Unix socket")
    parser.add_argument("--workers", type=int, default=2,
                        help="simulation worker processes (default: 2)")
    parser.add_argument("--cache-root", default=DEFAULT_ROOT,
                        help=f"SimCache directory (default: {DEFAULT_ROOT})")
    parser.add_argument("--max-jobs", type=int, default=16,
                        help="admission: queued+running jobs (default: 16)")
    parser.add_argument("--max-concurrent", type=int, default=2,
                        help="jobs dispatching at once (default: 2)")
    parser.add_argument("--max-points", type=int, default=256,
                        help="admission: points per job (default: 256)")
    parser.add_argument("--max-events", type=int, default=50_000_000,
                        help="engine event budget per dispatched point "
                             "(0 disables; default: 5e7)")
    parser.add_argument("--report", default=None, metavar="PATH",
                        help="append one serve-job JSON-lines record per "
                             "finished job")
    parser.add_argument("--ready-file", default=None, metavar="PATH",
                        help="write bound addresses here once accepting "
                             "(for scripts/CI)")
    args = parser.parse_args(argv)

    if args.no_tcp and not args.unix:
        parser.error("--no-tcp needs --unix PATH")

    policy = AdmissionPolicy(
        max_jobs=args.max_jobs,
        max_concurrent_jobs=args.max_concurrent,
        max_points_per_job=args.max_points,
        max_events_per_point=args.max_events or None)
    reporter = RunReporter(args.report) if args.report else None
    scheduler = Scheduler(SimCache(args.cache_root), policy=policy,
                          workers=args.workers, reporter=reporter)
    server = ServeServer(scheduler,
                         host=None if args.no_tcp else args.host,
                         port=args.port, unix_path=args.unix,
                         ready_file=args.ready_file)

    async def _run() -> None:
        addresses = await server.start()
        print(f"repro.serve listening on {', '.join(addresses)} "
              f"({args.workers} workers, cache {args.cache_root})")
        sys.stdout.flush()
        try:
            await asyncio.gather(
                *(s.serve_forever() for s in server._servers))
        finally:
            await server.stop()
            if reporter is not None:
                reporter.close()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("repro.serve: shutting down")
    return 0


# ----------------------------------------------------------------------
# python -m repro submit
# ----------------------------------------------------------------------
def _build_spec(args: argparse.Namespace) -> Dict[str, Any]:
    spec: Dict[str, Any] = {
        "kind": args.kind,
        "app": args.app,
        "variant": args.variant,
        "scale": args.scale,
        "seed": args.seed,
        "bandwidths": args.bandwidths,
        "latencies": args.latencies,
    }
    if args.clusters != grids.NUM_CLUSTERS:
        spec["clusters"] = args.clusters
    if args.cluster_size != grids.CLUSTER_SIZE:
        spec["cluster_size"] = args.cluster_size
    if args.loss:
        spec["faults"] = {"loss": args.loss}
    if args.max_events:
        spec["max_events"] = args.max_events
    return spec


def submit_main(argv: Optional[list] = None) -> int:
    from ..experiments.figure3 import render_panel
    from .client import ServeClient, ServeError, merge_grid
    from .jobs import GRID_BACKENDS, KINDS

    parser = argparse.ArgumentParser(
        prog="python -m repro submit",
        description="Submit one job to a running repro.serve instance and "
                    "stream its results.")
    parser.add_argument("app", choices=list(grids.APPS))
    parser.add_argument("--variant", default=None, choices=grids.VARIANTS)
    parser.add_argument("--kind", default="sweep", choices=KINDS)
    parser.add_argument("--scale", default="bench",
                        choices=["paper", "bench"])
    parser.add_argument("--seed", type=int, default=0, help=SEED_HELP)
    parser.add_argument("--bandwidths", type=_csv_floats,
                        default=list(grids.BANDWIDTHS_MBYTE_S),
                        help="MByte/s, comma separated (default: Figure 3)")
    parser.add_argument("--latencies", type=_csv_floats,
                        default=list(grids.LATENCIES_MS),
                        help="one-way ms, comma separated (default: Figure 3)")
    parser.add_argument("--clusters", type=int, default=grids.NUM_CLUSTERS)
    parser.add_argument("--cluster-size", type=int,
                        default=grids.CLUSTER_SIZE)
    parser.add_argument("--loss", type=float, default=0.0,
                        help="WAN packet-loss probability (adds a fault plan)")
    parser.add_argument("--max-events", type=int, default=0,
                        help="per-point engine event budget")
    parser.add_argument("--connect", default=f"127.0.0.1:{DEFAULT_PORT}",
                        help="server address: host:port or unix:/path "
                             f"(default: 127.0.0.1:{DEFAULT_PORT})")
    parser.add_argument("--json", action="store_true",
                        help="print raw stream records instead of a table")
    parser.add_argument("--no-stream", action="store_true",
                        help="submit, print the job id, exit (poll later "
                             "with the status endpoint)")
    args = parser.parse_args(argv)

    if args.variant is None:
        args.variant = grids.paper_variant(args.app)

    client = ServeClient(args.connect)
    spec = _build_spec(args)
    try:
        job = client.submit(spec)
    except ServeError as exc:
        print(f"submit rejected: {exc}", file=sys.stderr)
        return 2 if exc.status in (400, 404, 405) else 1
    except OSError as exc:
        print(f"cannot reach {args.connect}: {exc}", file=sys.stderr)
        return 1

    if args.no_stream:
        print(json.dumps(job, sort_keys=True))
        return 0

    records: List[Dict[str, Any]] = []
    points_done = 0
    try:
        for record in client.stream(job["id"]):
            records.append(record)
            if args.json:
                print(json.dumps(record, sort_keys=True))
                continue
            kind = record.get("kind")
            if kind == "baseline":
                print(f"[{job['id']}] baseline {record['runtime']:.4f}s"
                      + (" (cached)" if record.get("cached") else ""))
            elif kind == "point":
                points_done += 1
                tag = "cache" if record.get("cached") else "sim"
                if record.get("ok") is False:
                    print(f"[{job['id']}] point bw={record['bandwidth_mbyte_s']:g} "
                          f"lat={record['latency_ms']:g}ms FAILED "
                          f"({record.get('error')})")
                else:
                    print(f"[{job['id']}] point {points_done} "
                          f"bw={record['bandwidth_mbyte_s']:g} "
                          f"lat={record['latency_ms']:g}ms "
                          f"runtime={record['runtime']:.4f}s [{tag}]")
    except (ServeError, OSError) as exc:
        print(f"stream failed: {exc}", file=sys.stderr)
        return 1

    end = records[-1] if records else {}
    state = end.get("state", "?")
    if not args.json:
        print(f"[{job['id']}] {state}: {end.get('points_done', 0)}/"
              f"{end.get('points_total', 0)} points, "
              f"hit rate {100.0 * end.get('hit_rate', 0.0):.0f}%")
        if state == "done" and (args.kind == "sweep"
                                or args.kind in GRID_BACKENDS):
            try:
                print()
                print(render_panel(merge_grid(records)))
            except ServeError:
                pass
    return 0 if state == "done" else 1
