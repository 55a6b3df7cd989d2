"""Order oracle for the engine: both loops of ``run()`` and ``step()``
against one reference model.

The engine keeps two stores and two run loops for speed; its contract is
that none of that is observable — the fired order is that of a single heap
of ``(time, sequence)``.  Random programs (timed, zero-delay and
``call_soon`` events, scheduled while idle and from inside callbacks, with
equal-time ties and backlogs of over 64 timed events) are executed through
random splits of ``run()``, ``run(until=)``, ``run(max_events=)``,
``stop()`` and ``step()``, and after every split the engine must agree
with :class:`Model` on everything it exposes.
"""

import heapq
import itertools
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import Engine


class Model:
    """Reference scheduler: one heap of ``(time, seq)``, one loop."""

    def __init__(self):
        self.now, self.heap, self.seq = 0.0, [], itertools.count()
        self.events_processed = 0

    def call_at(self, when, fn):
        heapq.heappush(self.heap, (when, next(self.seq), fn))

    def call_after(self, delay, fn):
        self.call_at(self.now + delay, fn)

    def call_soon(self, fn):
        self.call_at(self.now, fn)

    def stop(self):
        self.stopped = True

    def step(self):
        return self.run(max_events=1) == 1

    def run(self, until=None, max_events=None):
        self.stopped, n = False, 0
        while not self.stopped and (max_events is None or n < max_events):
            if not self.heap or (until is not None and self.heap[0][0] > until):
                if until is not None:
                    self.now = max(self.now, until)
                break
            self.now, _, fn = heapq.heappop(self.heap)
            n += 1
            self.events_processed += 1
            fn()
        return n

    pending = property(lambda self: len(self.heap))

    def peek(self):
        return self.heap[0][0] if self.heap else math.inf


# Dyadic, so ``now + delay`` is exact and equal-time ties really are equal.
TIMES = [0.0, 0.0, 0.5, 1.0, 1.0, 1.5, 2.0, 3.0]
KINDS = ["at", "after", "after0", "soon"]


def schedule(sim, spec, label, fired):
    """Schedule ``spec`` on ``sim`` — an Engine or the Model, which share
    the scheduling interface.  When it fires, an event records its label,
    schedules its children and, if told to, stops the run."""
    kind, delay, stops, children = spec

    def fire():
        fired.append(label)
        for i, child in enumerate(children):
            schedule(sim, child, label + (i,), fired)
        if stops:
            sim.stop()

    if kind == "at":
        sim.call_at(sim.now + delay, fire)
    elif kind == "after":
        sim.call_after(delay, fire)
    elif kind == "after0":
        sim.call_after(0.0, fire)
    else:
        sim.call_soon(fire)


def leaf(kind, delay):
    return (kind, delay, False, ())


specs = st.recursive(
    st.builds(leaf, st.sampled_from(KINDS), st.sampled_from(TIMES)),
    lambda children: st.tuples(
        st.sampled_from(KINDS), st.sampled_from(TIMES), st.booleans(),
        st.lists(children, max_size=3).map(tuple)),
    max_leaves=12)

horizons = st.one_of(st.none(), st.sampled_from([0.0, 0.5, 1.0, 2.5, 4.0, 9.0]))
budgets = st.one_of(st.none(), st.integers(0, 6))
splits = st.lists(st.one_of(
    st.tuples(st.just("run"), horizons, budgets),
    st.tuples(st.just("step")),
    st.tuples(st.just("schedule"), specs)), max_size=10)


def observe(sim, fired):
    return (list(fired), sim.now, sim.pending, sim.peek(), sim.events_processed)


@settings(max_examples=300, deadline=None)
@given(backlog=st.lists(st.sampled_from(TIMES), max_size=100),
       program=st.lists(specs, max_size=6), splits=splits)
@example(backlog=[t for t in TIMES for _ in range(10)],
         program=[("at", 1.0, True, (leaf("soon", 0.0), leaf("at", 0.0),
                                     leaf("after", 0.5)))],
         splits=[("run", 1.0, 30), ("step",), ("run", 0.5, None),
                 ("schedule", leaf("soon", 0.0)), ("run", None, 7),
                 ("run", None, None)])
def test_engine_fires_in_the_order_of_one_heap(backlog, program, splits):
    eng, model = Engine(), Model()
    eng_fired, model_fired = [], []
    pair = ((eng, eng_fired), (model, model_fired))
    labels = itertools.count()

    def schedule_both(spec):
        label = (next(labels),)
        for sim, fired in pair:
            schedule(sim, spec, label, fired)

    for when in backlog:
        schedule_both(leaf("at", when))
    for spec in program:
        schedule_both(spec)
    # The last split drains whatever the random ones left (a stop() inside
    # it ends the run early on both sides alike).
    for split in splits + [("run", None, None)]:
        if split[0] == "schedule":
            schedule_both(split[1])
        elif split[0] == "step":
            assert eng.step() == model.step()
        else:
            _, until, max_events = split
            eng.run(until=until, max_events=max_events)
            model.run(until=until, max_events=max_events)
        assert observe(eng, eng_fired) == observe(model, model_fired), split
