"""Zero-cost-when-off guard: opt-in subsystems must cost nothing unused.

The probe bus, the critical-path profiler, the sanitizer, and fault
injection all promise the same thing: a run that does not ask for them
pays one attribute load and a branch per probe point — no constructed
observer, no warm topic, no event objects.  One message pipeline, four
kinds of guard, strictest first:

1. **Call-count parity** (deterministic, hardware-independent): spelling
   a subsystem's off switch out (``sanitize=False``, ``faults=None``),
   or merely importing it (``repro.critpath``, which the CLI dispatcher
   does to register ``profile``), must execute *exactly* the Python
   function calls a bare ``Machine`` does.  The bare pipeline itself is
   pinned to the pre-bus seed's calls per message within 5%, and an
   *inert* :class:`FaultPlan` may only cost its constant inspection at
   ``Machine`` construction.
2. **Structural zero-cost**: an un-instrumented ``Machine`` leaves every
   event topic cold and every optional subsystem unset, so publishers
   never build event objects.
3. **Pure observers**: switched *on*, a subsystem is allowed to cost
   host time but must reach the byte-identical simulated clock.
4. **Wall-clock ratio** (noisy CI hardware tolerated): message
   throughput over raw engine-event throughput must not collapse.
   Hardware speed cancels in the quotient; the floor is half the
   calibrated seed ratio, a gross-regression tripwire.
"""

import cProfile
import gc
import pstats
import time

import pytest

from repro.apps import run_app
from repro.experiments import grids
from repro.faults import FaultPlan
from repro.network import das_topology
from repro.runtime import Machine
from repro.sim import Engine
from repro.whatif.record import REFERENCE_POINT

# cProfile call count per message as of PR 16: 1,140,333 calls / 20,000
# messages (the growth seed, commit 0379b95, executed 95.02).  Deterministic
# across machines.
SEED_CALLS_PER_MESSAGE = 57.02
CALL_TOLERANCE = 0.05  # the budget: within 5% of the pinned count

# cProfile calls of one bench-scale run at the recording reference point
# (0.95 MByte/s, 3.3 ms) as of PR 16, measured on the second run of a
# process, when the run-invariant inputs are already memoised.  Before
# PR 16 the same runs executed 1,839,166 and 252,999 calls.
SEED_APP_CALLS = {"awari": 1_116_343, "tsp": 209_286}

# messages/s over engine events/s as of PR 24, best-of-5 each on the
# reference container: the median of eight such readings (0.16-0.28).  The
# denominator is 200 k timed events scheduled before run() and heap-popped
# (until PR 24 a sorted array walked them, ~1.4x faster, and the ratio read
# 0.15-0.18).  Wall-clock jitter on shared runners is large, so the
# assertion floor is 0.5x — a gross-regression tripwire, not a micrometer.
SEED_RATIO = 0.21
RATIO_FLOOR = 0.5 * SEED_RATIO

#: every topic some optional subscriber (tracer, profiler, sanitizer,
#: transport) would warm; only the two traffic counters are always hot
OPTIONAL_TOPICS = ("send", "deliver", "compute", "op", "queue", "gateway",
                   "block", "unblock", "phase", "fault_drop", "fault_spike",
                   "fault_link", "fault_retransmit")


def run_message_pipeline(n=5_000, **machine_kwargs):
    """``n`` WAN messages rank 0 -> rank 3 on a 2x2 system; returns
    ``(finish time, machine)``."""
    machine = Machine(das_topology(clusters=2, cluster_size=2),
                      **machine_kwargs)

    def sender(ctx):
        for i in range(n):
            yield ctx.send(3, 256, "t", payload=i)

    def receiver(ctx):
        for _ in range(n):
            yield ctx.recv("t")

    def idle(ctx):
        yield ctx.compute(0)

    machine.spawn(0, sender)
    machine.spawn(3, receiver)
    machine.spawn(1, idle)
    machine.spawn(2, idle)
    finish = machine.run()
    assert machine.stats.total_messages == n
    return finish, machine


def profiled_calls(fn, *args, **kwargs):
    """Python calls ``fn(*args, **kwargs)`` executes, and nothing else's:
    the collector is emptied first and held off meanwhile, or the count
    would include the finalizers of whatever garbage earlier tests left
    (which made the parity guard depend on the test order)."""
    profile = cProfile.Profile()
    gc.collect()
    gc.disable()
    try:
        profile.enable()
        fn(*args, **kwargs)
        profile.disable()
    finally:
        gc.enable()
    return pstats.Stats(profile).total_calls


def total_calls(**kwargs):
    return profiled_calls(run_message_pipeline, **kwargs)


# ----------------------------------------------------------------------
# 1. Call-count parity
# ----------------------------------------------------------------------
def _import_critpath():
    import repro.critpath  # noqa: F401  (the variable under test)
    return {}


@pytest.mark.parametrize("switch_off", [
    pytest.param(_import_critpath, id="profiler-imported"),
    pytest.param(lambda: {"sanitize": False}, id="sanitize=False"),
    pytest.param(lambda: {"faults": None}, id="faults=None"),
])
def test_switched_off_call_count_parity(switch_off):
    baseline = total_calls()
    off = total_calls(**switch_off())
    assert off == baseline, (
        f"a switched-off subsystem costs {off - baseline:+d} Python calls "
        f"over a bare Machine ({off} vs {baseline}) — it must be free")


def test_bare_pipeline_call_count_parity_with_seed():
    n = 20_000
    calls_per_message = total_calls(n=n) / n
    budget = SEED_CALLS_PER_MESSAGE * (1.0 + CALL_TOLERANCE)
    assert calls_per_message <= budget, (
        f"probe-bus fast-path regression: {calls_per_message:.2f} Python "
        f"calls per message, budget {budget:.2f} "
        f"(seed {SEED_CALLS_PER_MESSAGE} + {CALL_TOLERANCE:.0%})")


@pytest.mark.parametrize("app", sorted(SEED_APP_CALLS))
def test_app_run_call_count_ceiling(app):
    topology = grids.multi_cluster(*REFERENCE_POINT)

    def run():
        run_app(app, "optimized", topology, scale="bench", seed=0)

    run()       # whatever ran before, the memos are warm from here on
    calls = profiled_calls(run)
    budget = SEED_APP_CALLS[app] * (1.0 + CALL_TOLERANCE)
    assert calls <= budget, (
        f"app-layer host code regression: one {app}/optimized run executes "
        f"{calls} Python calls, budget {budget:.0f} "
        f"(seed {SEED_APP_CALLS[app]} + {CALL_TOLERANCE:.0%})")


def test_inert_fault_plan_costs_only_construction():
    # Checking plan.active at Machine construction costs 2 calls, once.
    delta_small = total_calls(n=500, faults=FaultPlan(transport=None)) \
        - total_calls(n=500)
    delta_large = total_calls(faults=FaultPlan(transport=None)) \
        - total_calls()
    assert delta_large == delta_small, (
        f"an inactive FaultPlan costs {delta_large - delta_small:+d} calls "
        f"per extra workload — inert-plan overhead must be constant")
    assert delta_large <= 4, (
        f"an inactive FaultPlan costs {delta_large:+d} calls over a bare "
        f"Machine — expected only the constant plan-inspection")


# ----------------------------------------------------------------------
# 2. Structural zero-cost
# ----------------------------------------------------------------------
@pytest.mark.parametrize("machine_kwargs", [
    {}, {"sanitize": False}, {"faults": None}], ids=str)
def test_switched_off_leaves_everything_cold(machine_kwargs):
    _, machine = run_message_pipeline(n=10, **machine_kwargs)
    assert machine.sanitizer is None
    assert machine.fault_injector is None
    assert machine.transport is None
    for link in machine.router._wan.values():
        assert link.faults is None
    bus = machine.bus
    assert bus.want_traffic_intra and bus.want_traffic_inter
    for topic in OPTIONAL_TOPICS:
        assert getattr(bus, f"want_{topic}") is False, topic


# ----------------------------------------------------------------------
# 3. Pure observers: switched on, same simulated clock
# ----------------------------------------------------------------------
def _profiled_bus():
    from repro.critpath import Profiler
    from repro.obs.bus import ProbeBus

    bus = ProbeBus()
    bus.attach(Profiler(das_topology(clusters=2, cluster_size=2)))
    return {"bus": bus}


@pytest.mark.parametrize("switch_on,still_clean", [
    pytest.param(_profiled_bus, lambda machine: True, id="profiler"),
    pytest.param(lambda: {"sanitize": True},
                 lambda machine: machine.sanitizer.findings == [],
                 id="sanitizer"),
    # an empty plan without transport is inert: nothing may be built
    pytest.param(lambda: {"faults": FaultPlan(transport=None)},
                 lambda machine: machine.fault_injector is None
                 and machine.transport is None, id="inert-fault-plan"),
])
def test_switched_on_same_simulated_clock(switch_on, still_clean):
    finish_off, _ = run_message_pipeline(n=2_000)
    finish_on, machine = run_message_pipeline(n=2_000, **switch_on())
    assert repr(finish_on) == repr(finish_off)
    assert still_clean(machine)


# ----------------------------------------------------------------------
# 4. Wall-clock ratio
# ----------------------------------------------------------------------
def run_engine_events(n=200_000):
    engine = Engine()
    for i in range(n):
        engine.call_at(i * 1e-6, lambda: None)
    engine.run()
    return engine.events_processed


def best_rate(fn, units, repeats=5):
    """Best-of-N throughput in units/second: robust against CI jitter."""
    best = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best = max(best, units / elapsed)
    return best


def test_uninstrumented_throughput_ratio():
    events_per_s = best_rate(run_engine_events, 200_000)
    messages_per_s = best_rate(run_message_pipeline, 5_000)
    ratio = messages_per_s / events_per_s
    assert ratio >= RATIO_FLOOR, (
        f"message pipeline collapsed: messages/s / engine events/s = "
        f"{ratio:.4f}, floor {RATIO_FLOOR:.4f} (seed ~{SEED_RATIO:.3f})")
