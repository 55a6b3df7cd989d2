"""Common application plumbing: variant registry and run helper.

Every application registers two builders (``unoptimized``/``optimized``;
FFT registers the same driver for both, as the paper found no
optimization).  A builder takes the app's config object and returns the
per-rank main generator, ready for :func:`repro.runtime.run_spmd`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, Optional, Tuple

from ..network.topology import Topology
from ..runtime.context import Context
from ..runtime.run import RunResult, run_spmd

AppBuilder = Callable[[Any], Callable[[Context], Generator]]

VARIANTS = ("unoptimized", "optimized")

#: ``--seed`` help of every command that runs an app
SEED_HELP = ("run seed: names the problem instance (each app's input "
             "data, TSP's job times, Awari's stage loads) and seeds the "
             "fault and WAN-jitter streams")

_REGISTRY: Dict[Tuple[str, str], AppBuilder] = {}
_DEFAULT_CONFIGS: Dict[str, Callable[[str], Any]] = {}
_TIMING_DEPENDENT: Dict[str, bool] = {}


def register_app(
    name: str,
    variant: str,
    builder: AppBuilder,
    default_config: Optional[Callable[[str], Any]] = None,
    timing_dependent: bool = False,
) -> None:
    """Register an application variant builder.

    ``default_config(scale_name)`` constructs the app's config at a named
    workload scale ("paper" / "bench"); registering it once per app is
    enough.

    ``timing_dependent`` declares that the app's *control flow* depends on
    message arrival timing (work stealing, arrival-order-driven protocols,
    timers), so a communication DAG recorded at one grid point is not
    valid at another — :mod:`repro.whatif` falls back to full simulation
    for such apps.  Setting it on any variant marks the whole app.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    _REGISTRY[(name, variant)] = builder
    if default_config is not None:
        _DEFAULT_CONFIGS[name] = default_config
    if timing_dependent:
        _TIMING_DEPENDENT[name] = True


def is_timing_dependent(name: str) -> bool:
    """True when the app declared timing-dependent control flow."""
    return _TIMING_DEPENDENT.get(name, False)


def app_names() -> Tuple[str, ...]:
    return tuple(sorted({name for name, _ in _REGISTRY}))


def get_builder(name: str, variant: str) -> AppBuilder:
    try:
        return _REGISTRY[(name, variant)]
    except KeyError:
        known = sorted(_REGISTRY)
        raise ValueError(f"no app variant {(name, variant)!r}; known: {known}") from None


def default_config(name: str, scale: str = "bench") -> Any:
    try:
        factory = _DEFAULT_CONFIGS[name]
    except KeyError:
        raise ValueError(f"app {name!r} has no registered default config") from None
    return factory(scale)


def run_app(
    name: str,
    variant: str,
    topology: Topology,
    config: Any = None,
    scale: str = "bench",
    seed: int = 0,
    until: Optional[float] = None,
    bus: Any = None,
    sanitize: bool = False,
    faults: Any = None,
    max_events: Optional[int] = None,
) -> RunResult:
    """Build and run one application variant on ``topology``.

    ``seed`` is the one seed of a run (:attr:`Machine.seed
    <repro.runtime.machine.Machine.seed>`): it names the problem
    instance, which every app draws from ``ctx.machine.seed``, and the
    fault and jitter streams.

    ``bus`` (a prepared :class:`~repro.obs.bus.ProbeBus`) instruments the
    run; active run reporters receive a record tagged with app/variant.
    ``sanitize=True`` attaches the runtime protocol sanitizer.
    ``faults`` (a :class:`~repro.faults.plan.FaultPlan`) injects WAN
    faults and enables the reliable transport; ``max_events`` bounds the
    engine event budget (used by the chaos tests to rule out hangs).
    """
    if config is None:
        config = default_config(name, scale)
    main = get_builder(name, variant)(config)
    return run_spmd(topology, main, seed=seed, until=until, bus=bus,
                    sanitize=sanitize, faults=faults, max_events=max_events,
                    report_meta={"app": name, "variant": variant})
