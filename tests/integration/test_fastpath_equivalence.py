"""Property test: the optimised hot path is bit-identical to the reference.

The performance work (ISSUE PR 3) must be *behaviour-preserving*: the
incremental compaction candidate search, the monitor sampling levels and
the kernel fast lane may only change how fast a run executes, never what
it computes.  This test pits the optimised configuration against the
reference slow path — exhaustive compaction scans
(``engine.incremental = False``) with full invariant checking — across
random seeds and fault plans, and requires byte-identical observables:
the stats summary serialised as JSON, the protocol trace, the grid
signature, every message's lifecycle timestamps, and the checkpoint
manifest of a mid-run snapshot.

The routing engine's header parking (DESIGN.md §9, P4) is checked the
same way against an always-poll oracle, across the configurations the
batch differential does not model.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Message, RMBConfig, RMBRing
from repro.core.routing import RoutingEngine
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.supervision import (
    WatchdogConfig,
    load_snapshot_bytes,
    save_snapshot_bytes,
)

NODES = 8
LANES = 3
HORIZON = 90.0


@st.composite
def fault_plans(draw):
    """None, or 1-2 segment failures (each optionally repaired)."""
    if not draw(st.booleans()):
        return None
    events = []
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        segment = draw(st.integers(min_value=0, max_value=NODES - 1))
        lane = draw(st.integers(min_value=0, max_value=LANES - 1))
        fail_at = float(draw(st.integers(min_value=5, max_value=60)))
        events.append(FaultEvent(time=fail_at, kind=FaultKind.SEGMENT,
                                 action="fail", segment=segment, lane=lane,
                                 grace=4.0))
        if draw(st.booleans()):
            events.append(FaultEvent(time=fail_at + 20.0,
                                     kind=FaultKind.SEGMENT,
                                     action="repair", segment=segment,
                                     lane=lane))
    return FaultPlan(events=events)


def build_ring(seed: int, plan: FaultPlan | None, *,
               incremental: bool, check_level: str,
               synchronous: bool = True) -> RMBRing:
    config = RMBConfig(nodes=NODES, lanes=LANES, retry_jitter=0.25,
                       check_level=check_level, synchronous=synchronous,
                       max_retries=8 if plan is not None else None)
    ring = RMBRing(config, seed=seed, probe_period=16.0, fault_plan=plan)
    ring.compaction.incremental = incremental
    ring.submit_all(
        Message(message_id=i, source=(i + seed) % NODES,
                destination=(i + seed + 2 + i % 3) % NODES,
                data_flits=2 + (i % 5))
        for i in range(10)
    )
    return ring


def observables(ring: RMBRing) -> tuple:
    return (
        ring.sim.now,
        json.dumps(ring.stats().summary(), sort_keys=True),
        ring.trace.entries,
        ring.grid.state_signature(),
        {mid: (record.injected_at, record.established_at,
               record.delivered_at, record.completed_at, record.retries,
               record.nacks, record.head_stall_ticks,
               sorted(record.lanes_visited))
         for mid, record in ring.routing.records.items()},
        ring.compaction.stats.moves,
        ring.compaction.stats.evacuations,
    )


def run_and_observe(seed: int, plan: FaultPlan | None, *,
                    incremental: bool, check_level: str,
                    synchronous: bool = True,
                    snapshot_at: float) -> tuple[tuple, dict]:
    """Run to the horizon, snapshotting mid-way; return observables and
    the snapshot manifest (with the restored copy finishing the run to
    prove the snapshot captured an equivalent state)."""
    ring = build_ring(seed, plan, incremental=incremental,
                      check_level=check_level, synchronous=synchronous)
    ring.sim.run(until=snapshot_at)
    snapshot = save_snapshot_bytes(ring)
    restored, manifest = load_snapshot_bytes(snapshot)
    restored.sim.run(until=HORIZON)
    restored.drain()
    manifest.pop("meta", None)
    return observables(restored), manifest


@pytest.mark.slow
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16),
       plan=fault_plans(),
       snapshot_at=st.integers(min_value=1, max_value=80))
def test_incremental_compaction_matches_reference(seed, plan, snapshot_at):
    """Optimised candidate search == exhaustive scan, bit for bit."""
    fast, fast_manifest = run_and_observe(
        seed, plan, incremental=True, check_level="full",
        snapshot_at=float(snapshot_at))
    slow, slow_manifest = run_and_observe(
        seed, plan, incremental=False, check_level="full",
        snapshot_at=float(snapshot_at))
    assert fast == slow
    assert fast_manifest == slow_manifest


@pytest.mark.slow
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16),
       plan=fault_plans(),
       snapshot_at=st.integers(min_value=1, max_value=80))
def test_incremental_inc_pass_matches_reference(seed, plan, snapshot_at):
    """Asynchronous mode: the per-INC hot-map gate changes nothing."""
    fast, _ = run_and_observe(
        seed, plan, incremental=True, check_level="full",
        synchronous=False, snapshot_at=float(snapshot_at))
    slow, _ = run_and_observe(
        seed, plan, incremental=False, check_level="full",
        synchronous=False, snapshot_at=float(snapshot_at))
    assert fast == slow


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16),
       plan=fault_plans(),
       level=st.sampled_from(["sampled", "off"]),
       snapshot_at=st.integers(min_value=1, max_value=80))
def test_check_level_is_read_only(seed, plan, level, snapshot_at):
    """The invariant monitor frequency never changes simulation results."""
    fast, _ = run_and_observe(
        seed, plan, incremental=True, check_level=level,
        snapshot_at=float(snapshot_at))
    reference, _ = run_and_observe(
        seed, plan, incremental=False, check_level="full",
        snapshot_at=float(snapshot_at))
    assert fast == reference


# ---------------------------------------------------------------------------
# Header parking vs the always-poll oracle
# ---------------------------------------------------------------------------

class AlwaysPoll:
    """Test-only oracle: the routing engine without header parking.

    Installed as an engine's ``_advance_headers``, it empties the park
    map before every header pass, so every stalled header takes the full
    poll.  A class rather than a closure so it survives snapshots.
    """

    def __init__(self, engine: RoutingEngine) -> None:
        self.engine = engine

    def __call__(self) -> None:
        self.engine._parked.clear()
        RoutingEngine._advance_headers(self.engine)


#: Configurations outside the batch differential's subset, each with
#: stalled headers in play.  ``watchdog`` disables the header timeout so
#: the watchdog, not the timeout, tears parked buses down.  Without
#: either, the sixteen-message burst can wedge for good (stalled headers
#: waiting on each other round the ring), which parks every header: runs
#: are therefore compared at a fixed horizon rather than drained.
PARKING_SCENARIOS = {
    "sync": {},
    "async": {"synchronous": False},
    "head_moves": {"compact_head_while_extending": True},
    "no_extend_up": {"extend_up": False},
    "no_timeout": {"header_timeout": None},
    "timeout_4": {"header_timeout": 4.0},
    "half_flit": {"flit_period": 0.5},
    "half_flit_timeout_4": {"flit_period": 0.5, "header_timeout": 4.0},
    "watchdog": {"header_timeout": None},
}
PARKING_WATCHDOG = WatchdogConfig(period=8.0, stall_window=24.0)
PARKING_HORIZON = 1_200.0


def build_parking_ring(seed: int, plan: FaultPlan | None, scenario: str,
                       multicast: bool, *, oracle: bool) -> RMBRing:
    config = RMBConfig(nodes=NODES, lanes=LANES, retry_jitter=0.25,
                       max_retries=8 if plan is not None else None,
                       **PARKING_SCENARIOS[scenario])
    ring = RMBRing(config, seed=seed, probe_period=16.0, fault_plan=plan,
                   watchdog=PARKING_WATCHDOG if scenario == "watchdog"
                   else None)
    if oracle:
        ring.routing._advance_headers = AlwaysPoll(ring.routing)
    messages = []
    for i in range(16):
        source = (i * 3 + seed) % NODES
        distance = 2 + (i + seed) % (NODES - 2)
        taps = (((source + 1) % NODES,)
                if multicast and i % 3 == 0 else ())
        messages.append(Message(
            message_id=i, source=source,
            destination=(source + distance) % NODES,
            data_flits=2 + (i % 5), extra_destinations=taps))
    ring.submit_all(messages)
    return ring


def parking_run(seed: int, plan: FaultPlan | None, scenario: str,
                multicast: bool, snapshot_at: float, *,
                oracle: bool) -> tuple[tuple, dict, tuple]:
    """Run to a mid-run snapshot, run the restored copy to the horizon;
    return its observables, the manifest and the watchdog incidents."""
    ring = build_parking_ring(seed, plan, scenario, multicast,
                              oracle=oracle)
    ring.sim.run(until=snapshot_at)
    restored, manifest = load_snapshot_bytes(save_snapshot_bytes(ring))
    assert isinstance(restored.routing._advance_headers, AlwaysPoll) \
        == oracle
    restored.sim.run(until=PARKING_HORIZON)
    manifest.pop("meta", None)
    incidents = () if restored.watchdog is None else tuple(
        restored.watchdog.incidents.entries)
    return observables(restored), manifest, incidents


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16),
       plan=fault_plans(),
       scenario=st.sampled_from(sorted(PARKING_SCENARIOS)),
       multicast=st.booleans(),
       snapshot_at=st.integers(min_value=1, max_value=80))
def test_header_parking_matches_always_poll(seed, plan, scenario,
                                            multicast, snapshot_at):
    """Parking stalled headers changes only how often they are polled."""
    parked = parking_run(seed, plan, scenario, multicast,
                         float(snapshot_at), oracle=False)
    polled = parking_run(seed, plan, scenario, multicast,
                         float(snapshot_at), oracle=True)
    assert parked == polled


@pytest.mark.parametrize("scenario", sorted(PARKING_SCENARIOS))
def test_parking_scenarios_exercise_parked_headers(scenario):
    """Coverage guard: every scenario parks headers and later wakes some
    of them, so the oracle comparison above is not vacuous."""
    ring = build_parking_ring(3, None, scenario, True, oracle=False)
    routing = ring.routing
    parked_ticks = woken = 0
    before: dict[int, tuple[int, int, int]] = {}
    while ring.sim.now < PARKING_HORIZON:
        ring.sim.run(until=ring.sim.now + 1.0)
        parked_ticks += len(routing._parked)
        # A live header whose park entry changed or vanished was re-polled.
        woken += sum(1 for bus_id, park in before.items()
                     if bus_id in routing.buses
                     and routing._parked.get(bus_id) != park)
        before = dict(routing._parked)
    assert parked_ticks > 0 and woken > 0


def test_watchdog_tears_down_a_parked_bus():
    """The watchdog scenario force-tears-down a bus while it is parked,
    and the run still matches the always-poll oracle."""
    ring = build_parking_ring(3, None, "watchdog", False, oracle=False)
    routing = ring.routing
    torn_while_parked = []
    force_teardown = routing.force_teardown

    def spy(bus_id: int) -> bool:
        was_parked = bus_id in routing._parked
        done = force_teardown(bus_id)
        if done and was_parked:
            torn_while_parked.append(bus_id)
        return done

    routing.force_teardown = spy
    ring.drain()
    assert torn_while_parked
    assert all(bus_id not in routing._parked for bus_id in torn_while_parked)
    oracle = build_parking_ring(3, None, "watchdog", False, oracle=True)
    oracle.drain()
    assert observables(ring) == observables(oracle)


def test_resume_from_parked_snapshot_is_bit_exact():
    """Snapshots drop the park map; a run resumed from a snapshot taken
    while headers are parked matches the uninterrupted run bit for bit."""
    ring = build_parking_ring(3, None, "sync", True, oracle=False)
    while not ring.routing._parked:
        ring.sim.run(until=ring.sim.now + 1.0)
    restored, _ = load_snapshot_bytes(save_snapshot_bytes(ring))
    assert restored.routing._parked == {}
    for run in (ring, restored):
        run.sim.run(until=PARKING_HORIZON)
    assert observables(restored) == observables(ring)
    # The restored run re-polled the headers the original skipped.
    assert restored.routing.lane_picks > ring.routing.lane_picks


def test_grid_pickled_without_col_epoch_restores():
    """A snapshot from before column epochs existed restores with zeroed
    epochs and resumes exactly."""
    uninterrupted = build_parking_ring(5, None, "sync", False, oracle=False)
    uninterrupted.sim.run(until=PARKING_HORIZON)
    ring = build_parking_ring(5, None, "sync", False, oracle=False)
    ring.sim.run(until=40.0)
    del ring.grid.col_epoch
    restored, _ = load_snapshot_bytes(save_snapshot_bytes(ring))
    assert restored.grid.col_epoch == [0] * NODES
    restored.sim.run(until=PARKING_HORIZON)
    assert observables(restored) == observables(uninterrupted)
