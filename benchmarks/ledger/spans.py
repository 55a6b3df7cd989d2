"""In-memory spans recorded by the benchmark around calls into ``repro``.

A span is ``{id, name, op, parent, start, end}`` with host seconds from
the tracer's origin (on the clock it was given: the benchmark passes one
that leaves its calibration slices out).  ``name`` is ``<layer>.<stage>`` — the layer is the
repo module the call went into (``sim``, ``apps``, ``experiments``,
``whatif``, ``replay``, ``serve``) or ``ledger`` for the benchmark's own
glue.  ``op`` is the operation (panel, job) the span belongs to; children
inherit it.  Nothing is written until the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

#: float slack when comparing span boundaries (perf_counter is monotonic,
#: the slack only covers the synthetic spans built from reported durations)
EPS = 1e-9


class Tracer:
    """Single-threaded span recorder; nest with ``with tracer.span(...)``."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self._clock = clock
        self._origin = clock()

    def _now(self) -> float:
        return self._clock() - self._origin

    @contextmanager
    def span(self, name: str, op: Optional[str] = None) -> Iterator[Dict[str, Any]]:
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.spans[parent]["op"]
        record = {"id": len(self.spans), "name": name, "op": op,
                  "parent": parent, "start": self._now(), "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = self._now()

    def reported_child(self, parent: Dict[str, Any], name: str,
                       duration: float) -> None:
        """A child span for a duration the *program* reported about a call
        the benchmark cannot see inside (``RunResult.wall_time``: the
        ``machine.run()`` part of one ``run_app``).  Placed at the end of
        the closed ``parent`` and clipped to it."""
        end = parent["end"]
        start = max(parent["start"], end - duration)
        self.spans.append({"id": len(self.spans), "name": name,
                           "op": parent["op"], "parent": parent["id"],
                           "start": start, "end": end, "reported": True})


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: List[Dict[str, Any]], root: int) -> Dict[str, float]:
    """Per-layer self time (duration minus children) under span ``root``.

    Every span below the root is counted once, so the values sum to the
    root's duration exactly (up to float rounding)."""
    child_time = [0.0] * len(spans)
    inside = [False] * len(spans)
    inside[root] = True
    for span in spans:                      # parents precede children
        parent = span["parent"]
        if parent is not None and inside[parent]:
            inside[span["id"]] = True
            child_time[parent] += span["end"] - span["start"]
    out: Dict[str, float] = {}
    for span in spans:
        if inside[span["id"]]:
            own = span["end"] - span["start"] - child_time[span["id"]]
            out[layer_of(span["name"])] = out.get(layer_of(span["name"]), 0.0) + own
    return out


def problems(spans: List[Dict[str, Any]]) -> List[str]:
    """Well-formedness violations: closed spans, ids in order, children
    inside their parents, siblings not overlapping (self time >= 0)."""
    found: List[str] = []
    child_time = [0.0] * len(spans)
    for index, span in enumerate(spans):
        label = f"span {index} {span.get('name')!r}"
        if span.get("id") != index:
            found.append(f"{label}: id {span.get('id')} out of order")
            continue
        if span["end"] is None or span["end"] < span["start"]:
            found.append(f"{label}: not closed or negative duration")
            continue
        parent = span["parent"]
        if parent is None:
            continue
        if not 0 <= parent < index:
            found.append(f"{label}: parent {parent} does not precede it")
            continue
        outer = spans[parent]
        if span["start"] < outer["start"] - EPS or span["end"] > outer["end"] + EPS:
            found.append(f"{label}: outside parent {parent}")
        child_time[parent] += span["end"] - span["start"]
    for index, span in enumerate(spans):
        if span["end"] is not None and \
                child_time[index] > span["end"] - span["start"] + 1e-6:
            found.append(f"span {index} {span['name']!r}: negative self time")
    return found
