"""Exact gates on the ring's deterministic work counters.

Wall-clock speed varies from host to host; the number of extension-lane
picks a fixed-seed run performs does not, nor does the number of held
hops the invariant monitor walks.  Pinning them exactly (the way
``benchmarks/perf/baseline.json`` pins saturation rates) turns a change
in how often stalled headers are polled, or an extra monitor walk, into
a reviewed test edit instead of a wall-clock impression.
"""

from __future__ import annotations

from repro.core import RMBConfig, RMBRing
from repro.sim import RandomStream
from repro.traffic import ArrivalSchedule, bernoulli_schedule, replay_on_ring

#: ``lane_picks`` of :func:`overloaded_ring`.  It was 35,622 while every
#: stalled header was re-polled each flit tick; parking stalled headers
#: on column epochs (DESIGN.md §9, P4) leaves only the polls whose head
#: or next column changed.
OVERLOAD_LANE_PICKS = 3_972

#: ``checks_run`` and ``hops_checked`` of :func:`overloaded_ring`'s
#: invariant monitor: one full-strength check per ``cycle_period``, each
#: one fused pass over every held hop (DESIGN.md §9, P5).
OVERLOAD_CHECKS_RUN = 1_072
OVERLOAD_HOPS_CHECKED = 60_068


def overloaded_ring(messages: int = 256, seed: int = 7) -> RMBRing:
    """N=16, k=4 at 0.1 msg/node/tick (~17x saturation), drained.

    The first ``messages`` arrivals of a seeded Bernoulli uniform
    schedule, replayed at their due ticks on the ``RMBConfig`` defaults:
    the benchmark's ``ring_overload`` operating point at a test size.
    """
    rng = RandomStream(seed, name="overload")
    arrivals = bernoulli_schedule(16, 320, 0.1, 8, rng)
    schedule = ArrivalSchedule(arrivals.entries[:messages])
    ring = RMBRing(RMBConfig(nodes=16, lanes=4), seed=seed,
                   probe_period=16.0, trace_kinds=set())
    replay_on_ring(ring, schedule)
    ring.sim.run(until=schedule.horizon() + 1.0)
    ring.drain()
    return ring


def test_overload_lane_picks_pinned():
    ring = overloaded_ring()
    assert ring.stats().summary()["completed"] == 256
    assert ring.routing.lane_picks == OVERLOAD_LANE_PICKS


def test_overload_monitor_work_pinned():
    ring = overloaded_ring()
    assert ring.check_level == "full"
    assert ring.monitor.checks_run == OVERLOAD_CHECKS_RUN
    assert ring.monitor.hops_checked == OVERLOAD_HOPS_CHECKED


def test_lane_picks_starts_at_zero():
    ring = RMBRing(RMBConfig(nodes=4, lanes=2), seed=0)
    assert ring.routing.lane_picks == 0
