"""Span tracing of the simulator's layers, from outside the program.

The tracer wraps each layer's public entry points at *class* level for
the duration of a ``with`` block.  Install it before a network is
built: ``RMBRing.__init__`` binds ``flit_tick``, ``global_pass``,
``check`` and ``on_edge`` into periodic events at construction, so
only methods looked up after installation are traced.

Spans (layer, start, end, parent index) are kept in memory and written
out once the benchmark has finished measuring.  A layer's self time is
its spans' durations minus the time covered by their direct children,
so nesting such as ``kernel > cycles > compaction`` and
``kernel > routing > fabric`` (bridge re-injection runs from the
routing engine's ``on_complete`` hook inside ``flit_tick``) is
attributed to the innermost layer.
"""

from __future__ import annotations

import csv
import functools
import gzip
import pathlib
import time
from collections import defaultdict
from typing import Any, Callable

from repro.core.compaction import CompactionEngine
from repro.core.cycles import CycleController, GlobalCycleDriver
from repro.core.invariants import InvariantMonitor
from repro.core.routing import RoutingEngine
from repro.hier.fabric import RingFabric
from repro.hier.hier import HierRouteMap
from repro.sim.kernel import Simulator
from repro.sim.monitor import TimeSeries

#: (layer, class, method).  ``RingFabric._leg_completed`` is the
#: fabric's ``on_complete`` hook, the one path by which a leg is
#: re-injected at a bridge.
ENTRY_POINTS: tuple[tuple[str, type, str], ...] = (
    ("kernel", Simulator, "run"),
    ("routing", RoutingEngine, "flit_tick"),
    ("routing", RoutingEngine, "submit"),
    ("compaction", CompactionEngine, "global_pass"),
    ("compaction", CompactionEngine, "inc_pass"),
    ("invariants", InvariantMonitor, "check"),
    ("cycles", GlobalCycleDriver, "tick"),
    ("cycles", CycleController, "on_edge"),
    ("probes", TimeSeries, "record"),
    ("fabric", RingFabric, "submit"),
    ("fabric", RingFabric, "_leg_completed"),
    ("fabric", HierRouteMap, "plan"),
)
LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in ENTRY_POINTS))
#: Layers whose entry points return a work count worth summing.
RETURNS_COUNT = frozenset({"compaction"})


class SpanTracer:
    """Class-level entry-point wrappers recording nested spans."""

    def __init__(self) -> None:
        self.spans: list[Any] = []
        self.returned: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple[type, str, Any]] = []

    def __enter__(self) -> "SpanTracer":
        for layer, cls, name in ENTRY_POINTS:
            original = cls.__dict__[name]
            self._saved.append((cls, name, original))
            setattr(cls, name, self._wrap(layer, original))
        return self

    def __exit__(self, *exc: object) -> None:
        for cls, name, original in reversed(self._saved):
            setattr(cls, name, original)
        self._saved.clear()

    def _wrap(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        spans = self.spans
        stack = self._stack
        returned = self.returned
        tally = layer in RETURNS_COUNT
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, start, end, parent)
            if tally:
                returned[layer] += result
            return result

        return traced

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: span count, total seconds and self seconds."""
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        covered: dict[str, float] = defaultdict(float)
        spans = self.spans
        for layer, start, end, parent in spans:
            duration = end - start
            calls[layer] += 1
            total[layer] += duration
            if parent >= 0:
                covered[spans[parent][0]] += duration
        return {layer: {"calls": calls[layer], "total_s": total[layer],
                        "self_s": total[layer] - covered[layer]}
                for layer in LAYERS}

    def write(self, path: pathlib.Path, workload: str) -> None:
        """Write every span as gzipped CSV (times relative to the first)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1, newline="") as stream:
            writer = csv.writer(stream)
            writer.writerow(("name", "start_s", "end_s", "parent",
                             "workload"))
            for layer, start, end, parent in self.spans:
                writer.writerow((layer, f"{start - origin:.9f}",
                                 f"{end - origin:.9f}", parent, workload))
