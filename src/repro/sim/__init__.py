"""Discrete-event simulation substrate.

A self-contained kernel (events and processes), clock domains with
skew/jitter for modelling asynchronous hardware, deterministic named random
streams, tracing, and measurement probes.
"""

from repro.sim.clock import ClockDomain, homogeneous_domains, skewed_domains
from repro.sim.events import (
    Event,
    EventQueue,
    PRIORITY_EARLY,
    PRIORITY_LATE,
    PRIORITY_NORMAL,
)
from repro.sim.kernel import Simulator, every
from repro.sim.monitor import Counter, PeriodicProbe, Tally, TimeSeries, percentile
from repro.sim.process import Process, Waitable, all_of, any_of
from repro.sim.rng import RandomStream, SeedSequence
from repro.sim.trace import TraceEntry, TraceRecorder

__all__ = [
    "ClockDomain",
    "Counter",
    "Event",
    "EventQueue",
    "PRIORITY_EARLY",
    "PRIORITY_LATE",
    "PRIORITY_NORMAL",
    "PeriodicProbe",
    "Process",
    "RandomStream",
    "SeedSequence",
    "Simulator",
    "Tally",
    "TimeSeries",
    "TraceEntry",
    "TraceRecorder",
    "Waitable",
    "all_of",
    "any_of",
    "every",
    "homogeneous_domains",
    "percentile",
    "skewed_domains",
]
