"""Exact gates on the ring's deterministic work counters.

Wall-clock speed varies from host to host; the number of extension-lane
picks a fixed-seed run performs does not, nor does the number of held
hops the invariant monitor walks.  Pinning them exactly (the way
``benchmarks/perf/baseline.json`` pins saturation rates) turns a change
in how often stalled headers are polled, or an extra monitor walk, into
a reviewed test edit instead of a wall-clock impression.  The same holds
for the asynchronous cycle layer: the clock edges delivered, the odd/even
cycles switched and the compaction moves made by a fixed-seed async ring.
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


#: ``ClockDomain.edges_delivered``, ``CycleController.transitions`` and
#: ``compaction.stats.moves`` of :func:`async_ring`, summed over its INCs.
#: One edge is one kernel event and one handshake-table evaluation, so
#: these move only if the edge stream or the rules it fires change.
ASYNC_EDGES = 33_827
ASYNC_TRANSITIONS = 6_592
ASYNC_MOVES = 2_028


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


def async_ring(messages: int = 256, seed: int = 7) -> RMBRing:
    """N=8, k=4 on skewed per-INC clocks at 0.01 msg/node/tick, drained.

    The asynchronous counterpart of :func:`overloaded_ring`: every INC
    runs its own handshake FSM off its own clock domain, and compaction
    runs as per-INC ``inc_pass`` work.
    """
    rng = RandomStream(seed, name="async")
    arrivals = bernoulli_schedule(8, 6400, 0.01, 8, rng)
    schedule = ArrivalSchedule(arrivals.entries[:messages])
    ring = RMBRing(RMBConfig(nodes=8, lanes=4, synchronous=False), seed=seed,
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


def test_async_cycle_work_pinned():
    ring = async_ring()
    assert ring.stats().summary()["completed"] == 256
    assert ring.check_level == "full"
    controllers = ring.controllers
    assert controllers is not None
    edges = sum(c._domain.edges_delivered for c in controllers)
    transitions = sum(c.transitions for c in controllers)
    assert (edges, transitions, ring.compaction.stats.moves) == (
        ASYNC_EDGES, ASYNC_TRANSITIONS, ASYNC_MOVES)
