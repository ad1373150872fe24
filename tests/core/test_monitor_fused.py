"""The fused invariant pass against its reference sequence.

``InvariantMonitor.check`` walks each bus's hops once;
``check_reference`` runs the individual checks one walk each (agreement,
shapes, dead occupancy, monotonicity, ports, Lemma 1).  The fused pass
must raise if and only if the reference raises, with the same exception
type and message, and leave the same lane-monotonicity tracker after
every check.  States come from live rings (synchronous and asynchronous)
and from directly placed buses, then take one or two random corruptions.

The fused pass drops ``validate_ports`` on the argument that grid/bus
agreement plus bus shapes imply it; the last tests check that
implication directly.
"""

from __future__ import annotations

import pickle
from typing import Callable, NamedTuple, Optional

from hypothesis import given, settings, strategies as st

from repro.core import Message, RMBConfig, RMBRing
from repro.core.flits import MessageRecord
from repro.core.invariants import (
    InvariantMonitor,
    LaneMonotonicity,
    check_bus_shapes,
    check_grid_bus_agreement,
)
from repro.core.ports import validate_ports
from repro.core.segments import SegmentGrid
from repro.core.status import PortHealth
from repro.core.virtual_bus import VirtualBus
from repro.errors import InvariantViolation, ProtocolError

NODES, LANES = 8, 3


class State(NamedTuple):
    grid: SegmentGrid
    buses: dict[int, VirtualBus]
    controllers: Optional[list]


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------

def outcome(call: Callable[[], None]) -> Optional[tuple[type, str]]:
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - the type is what we compare
        return type(exc), str(exc)
    return None


def assert_matches_reference(monitor: InvariantMonitor):
    """Run the fused check and the reference sequence on one state.

    Both are read-only on the grid and the buses, so a twin monitor
    sharing them but holding a copy of the tracker sees the same input.
    """
    twin = InvariantMonitor(monitor.grid, monitor.buses,
                            controllers=monitor.controllers)
    twin.monotonicity._last = dict(monitor.monotonicity._last)
    twin.checks_run = monitor.checks_run
    fused = outcome(monitor.check)
    reference = outcome(twin.check_reference)
    assert fused == reference
    # Every corruption is reported as a violation, never as whatever
    # exception the walk happened to trip over.
    assert fused is None or fused[0] is InvariantViolation, fused
    assert monitor.monotonicity._last == twin.monotonicity._last
    assert monitor.checks_run == twin.checks_run
    return fused


# ---------------------------------------------------------------------------
# Corruptions: each mutates a state behind some layer's back
# ---------------------------------------------------------------------------

def _hops(state):
    return [(bus, hop) for bus in state.buses.values()
            for hop in range(len(bus.hops))]


def _held(state):
    """Held hops on an in-range lane: the cells a corruption may touch
    through the grid after an earlier corruption bent the bus."""
    lanes = state.grid.lanes
    return [(bus, hop) for bus in state.buses.values()
            for hop in bus.held_hops()
            if hop < len(bus.hops) and 0 <= bus.hops[hop] < lanes]


def _cells(state, occupied):
    grid = state.grid
    return [(segment, lane) for segment in range(grid.nodes)
            for lane in range(grid.lanes)
            if (grid.occupant(segment, lane) is not None) == occupied]


def rewrite_hop_lane(data, state):
    hops = _hops(state)
    if hops:
        bus, hop = data.draw(st.sampled_from(hops))
        bus.hops[hop] = data.draw(st.integers(0, state.grid.lanes - 1))


def claim_without_bus(data, state):
    free = [cell for cell in _cells(state, occupied=False)
            if state.grid.health(*cell) is PortHealth.OK]
    if free and state.buses:
        segment, lane = data.draw(st.sampled_from(free))
        state.grid.claim(segment, lane,
                         data.draw(st.sampled_from(sorted(state.buses))))


def release_without_bus(data, state):
    occupied = _cells(state, occupied=True)
    if occupied:
        segment, lane = data.draw(st.sampled_from(occupied))
        state.grid.release(segment, lane, state.grid.occupant(segment, lane))


def claim_unknown_bus(data, state):
    free = [cell for cell in _cells(state, occupied=False)
            if state.grid.health(*cell) is PortHealth.OK]
    if free:
        segment, lane = data.draw(st.sampled_from(free))
        state.grid.claim(segment, lane, max(state.buses, default=0) + 1000)


def rekey_bus(data, state):
    """File a bus under another key, with or without the grid following."""
    if state.buses:
        key = data.draw(st.sampled_from(sorted(state.buses)))
        state.buses[key + 1000] = state.buses.pop(key)
        grid = state.grid
        cells = grid.lanes_of(key).items()
        # The grid follows only where it can re-claim: an earlier
        # corruption may have made one of the cells faulty.
        if data.draw(st.booleans()) and all(
                grid.health(segment, lane) is PortHealth.OK
                for segment, lane in cells):
            for segment, lane in cells:
                grid.release(segment, lane, key)
                grid.claim(segment, lane, key + 1000)


def jump_hop_with_grid(data, state):
    """Move a held hop to any free lane of its column, grid included."""
    grid = state.grid
    candidates = [
        (bus, hop, lane) for bus, hop in _held(state)
        for lane in range(grid.lanes)
        if grid.occupant(bus.segment_index(hop), bus.hops[hop]) == bus.bus_id
        and grid.is_usable(bus.segment_index(hop), lane)
    ]
    if candidates:
        bus, hop, lane = data.draw(st.sampled_from(candidates))
        segment = bus.segment_index(hop)
        grid.release(segment, bus.hops[hop], bus.bus_id)
        grid.claim(segment, lane, bus.bus_id)
        bus.hops[hop] = lane


def resize_bus_ring(data, state):
    if state.buses:
        bus = state.buses[data.draw(st.sampled_from(sorted(state.buses)))]
        bus.ring_size = data.draw(st.sampled_from(
            [size for size in (state.grid.nodes - 1, state.grid.nodes + 1)
             if size >= 2]))


def shift_released_from(data, state):
    if state.buses:
        bus = state.buses[data.draw(st.sampled_from(sorted(state.buses)))]
        bus.released_from = data.draw(
            st.none() | st.integers(-1, len(bus.hops) + 2))


def out_of_range_lane(data, state):
    hops = _hops(state)
    if hops:
        bus, hop = data.draw(st.sampled_from(hops))
        bus.hops[hop] = data.draw(st.sampled_from(
            [-1, state.grid.lanes, state.grid.lanes + 1]))


def overshoot_span(data, state):
    if state.buses:
        bus = state.buses[data.draw(st.sampled_from(sorted(state.buses)))]
        for _ in range(data.draw(st.integers(1, 2))):
            lane = bus.hops[-1] if bus.hops else 0
            bus.hops.append(lane)
            segment = bus.segment_index(len(bus.hops) - 1)
            if (data.draw(st.booleans()) and 0 <= lane < state.grid.lanes
                    and state.grid.is_usable(segment, lane)):
                state.grid.claim(segment, lane, bus.bus_id)


def _move_up(data, state, dying):
    grid = state.grid
    candidates = [
        (bus, hop) for bus, hop in _held(state)
        if bus.hops[hop] + 1 < grid.lanes
        and grid.is_usable(bus.segment_index(hop), bus.hops[hop] + 1)
        and grid.occupant(bus.segment_index(hop), bus.hops[hop]) == bus.bus_id
    ]
    if candidates:
        bus, hop = data.draw(st.sampled_from(candidates))
        segment, lane = bus.segment_index(hop), bus.hops[hop]
        if dying:
            grid.set_health(segment, lane, PortHealth.DYING)
        grid.move_up(segment, lane, bus.bus_id)
        bus.hops[hop] = lane + 1


def move_up_from_ok(data, state):
    _move_up(data, state, dying=False)


def move_up_from_dying(data, state):
    _move_up(data, state, dying=True)


def occupied_cell_health(data, state):
    occupied = _cells(state, occupied=True)
    if occupied:
        segment, lane = data.draw(st.sampled_from(occupied))
        state.grid.set_health(segment, lane, data.draw(
            st.sampled_from([PortHealth.DYING, PortHealth.DEAD])))


def lemma1_skew(data, state):
    if state.controllers:
        controller = data.draw(st.sampled_from(state.controllers))
        controller.cycle += data.draw(st.integers(1, 3))


def no_corruption(data, state):
    pass


CORRUPTIONS = (
    no_corruption, rewrite_hop_lane, claim_without_bus, release_without_bus,
    claim_unknown_bus, rekey_bus, jump_hop_with_grid, resize_bus_ring,
    shift_released_from, out_of_range_lane, overshoot_span,
    move_up_from_ok, move_up_from_dying, occupied_cell_health, lemma1_skew,
)


def corrupt(data, state):
    """Apply one or two corruptions (two exercise the report order)."""
    for corruption in data.draw(st.lists(st.sampled_from(CORRUPTIONS),
                                         min_size=1, max_size=2)):
        corruption(data, state)


# ---------------------------------------------------------------------------
# Live ring states
# ---------------------------------------------------------------------------

@st.composite
def batches(draw, nodes=NODES):
    count = draw(st.integers(min_value=1, max_value=10))
    messages = []
    for index in range(count):
        source = draw(st.integers(min_value=0, max_value=nodes - 1))
        offset = draw(st.integers(min_value=1, max_value=nodes - 1))
        flits = draw(st.integers(min_value=0, max_value=6))
        messages.append(Message(index, source, (source + offset) % nodes,
                                data_flits=flits))
    return messages


@settings(max_examples=150, deadline=None)
@given(st.booleans(), st.integers(0, 2**16), batches(), st.data())
def test_fused_check_matches_reference_on_live_rings(synchronous, seed,
                                                     messages, data):
    ring = RMBRing(RMBConfig(nodes=NODES, lanes=LANES, cycle_period=2.0,
                             synchronous=synchronous),
                   seed=seed, trace_kinds=set(), check_invariants=False)
    ring.submit_all(messages)
    state = State(ring.grid, ring.buses, ring.controllers)
    monitor = InvariantMonitor(*state)
    # Clean checks between legal progress: compaction moves hops down,
    # teardown releases them, so the tracker is exercised both ways.
    for _ in range(data.draw(st.integers(1, 3))):
        ring.run(float(data.draw(st.integers(0, 12))))
        assert assert_matches_reference(monitor) is None
    corrupt(data, state)
    assert_matches_reference(monitor)
    assert_matches_reference(monitor)   # again, on the tracker it left


# ---------------------------------------------------------------------------
# Directly placed states
# ---------------------------------------------------------------------------

@st.composite
def placed_states(draw):
    """Buses drawn as ±1 lane paths and claimed where their cells are free.

    Many buses per column, partly released teardowns and full lanes are
    common here, unlike in short ring runs.
    """
    nodes = draw(st.integers(2, 6))
    lanes = draw(st.integers(1, 4))
    grid = SegmentGrid(nodes, lanes)
    buses: dict[int, VirtualBus] = {}
    for bus_id in range(draw(st.integers(0, 8))):
        source = draw(st.integers(0, nodes - 1))
        span = draw(st.integers(1, nodes - 1))
        lane = draw(st.integers(0, lanes - 1))
        hops = []
        for _ in range(draw(st.integers(0, span))):
            hops.append(lane)
            lane = min(lanes - 1, max(0, lane + draw(st.integers(-1, 1))))
        held = draw(st.none() | st.integers(0, len(hops)))
        cells = [((source + hop) % nodes, hops[hop])
                 for hop in range(len(hops) if held is None else held)]
        if any(not grid.is_free(*cell) for cell in cells):
            continue
        for segment, lane in cells:
            grid.claim(segment, lane, bus_id)
        message = Message(bus_id, source, (source + span) % nodes, data_flits=1)
        bus = VirtualBus(bus_id, message, MessageRecord(message), nodes)
        bus.hops = hops
        bus.released_from = held
        buses[bus_id] = bus
    return State(grid, buses, None)


@settings(max_examples=300, deadline=None)
@given(placed_states(), st.data())
def test_fused_check_matches_reference_on_placed_states(state, data):
    monitor = InvariantMonitor(*state)
    assert assert_matches_reference(monitor) is None
    # A legal downward move between checks, then a corruption.
    movable = [(bus, hop) for bus, hop in _held(state)
               if bus.hops[hop] > 0
               and state.grid.is_usable(bus.segment_index(hop),
                                        bus.hops[hop] - 1)]
    if movable and data.draw(st.booleans()):
        bus, hop = data.draw(st.sampled_from(movable))
        state.grid.move_down(bus.segment_index(hop), bus.hops[hop],
                             bus.bus_id)
        bus.hops[hop] -= 1
    corrupt(data, state)
    assert_matches_reference(monitor)


def test_fused_check_counts_held_hops():
    state = State(SegmentGrid(8, 3), {}, None)
    message = Message(0, 6, 2, data_flits=1)
    bus = VirtualBus(4, message, MessageRecord(message), 8)
    for hop, lane in enumerate([2, 1, 1, 0]):
        state.grid.claim((6 + hop) % 8, lane, 4)
        bus.hops.append(lane)
    state.buses[4] = bus
    monitor = InvariantMonitor(*state)
    monitor.check()
    bus.released_from = 3
    state.grid.release(1, 0, 4)
    monitor.check()
    assert (monitor.checks_run, monitor.hops_checked) == (2, 7)
    assert monitor.monotonicity._last == {(4, 0): 2, (4, 1): 1, (4, 2): 1}


def test_fused_check_reports_first_reference_violation():
    # Two violations at once: the reference order reports agreement
    # (the orphan claim) before shapes (the out-of-range lane).
    state = State(SegmentGrid(8, 3), {}, None)
    message = Message(0, 0, 3, data_flits=1)
    bus = VirtualBus(0, message, MessageRecord(message), 8)
    for hop, lane in enumerate([1, 1]):
        state.grid.claim(hop, lane, 0)
        bus.hops.append(lane)
    state.buses[0] = bus
    monitor = InvariantMonitor(*state)
    monitor.check()
    state.grid.claim(5, 2, 0)
    bus.hops.append(7)
    expected = outcome(lambda: check_grid_bus_agreement(*state[:2]))
    assert expected is not None and expected[0] is InvariantViolation
    assert outcome(monitor.check) == expected


def released_past_hops() -> State:
    """One bus holding two hops but claiming to hold four."""
    state = State(SegmentGrid(8, 3), {}, None)
    message = Message(0, 1, 5, data_flits=1)
    bus = VirtualBus(3, message, MessageRecord(message), 8)
    for hop, lane in enumerate([1, 1]):
        state.grid.claim(1 + hop, lane, 3)
        bus.hops.append(lane)
    bus.released_from = 4
    state.buses[3] = bus
    return state


def test_agreement_names_a_bus_released_past_its_hops():
    state = released_past_hops()
    raised = outcome(lambda: check_grid_bus_agreement(*state[:2]))
    assert raised is not None and raised[0] is InvariantViolation
    assert state.buses[3].describe() in raised[1]
    assert "released_from 4" in raised[1]


def test_monotonicity_names_a_bus_released_past_its_hops():
    state = released_past_hops()
    tracker = LaneMonotonicity()
    raised = outcome(lambda: tracker.observe(state.buses, state.grid))
    assert raised is not None and raised[0] is InvariantViolation
    assert state.buses[3].describe() in raised[1]


def test_fused_check_reports_a_bus_released_past_its_hops():
    state = released_past_hops()
    monitor = InvariantMonitor(*state)
    assert outcome(monitor.check) == outcome(
        lambda: check_grid_bus_agreement(*state[:2]))


# ---------------------------------------------------------------------------
# Agreement + shapes imply the port checks
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(placed_states(), st.data())
def test_agreement_and_shapes_imply_valid_ports(state, data):
    if data.draw(st.booleans()):
        corrupt(data, state)
    # A released_from past the hop list fails agreement like any other
    # corruption, so the premise does not hold.
    if (outcome(lambda: check_grid_bus_agreement(state.grid, state.buses))
            or outcome(lambda: check_bus_shapes(state.buses,
                                                state.grid.lanes))):
        return
    validate_ports(state.grid, state.buses)


def test_double_driven_input_fails_agreement_first():
    # The construction of test_ports.py's double-driven-input case: one
    # input lane can feed two outputs only if two buses hold the same
    # upstream cell, which agreement already rejects.
    grid = SegmentGrid(8, 4)
    message_a = Message(0, 0, 2, data_flits=1)
    bus_a = VirtualBus(1, message_a, MessageRecord(message_a), 8)
    grid.claim(0, 2, 1)
    grid.claim(1, 2, 1)
    bus_a.hops = [2, 2]
    message_b = Message(1, 0, 2, data_flits=1)
    bus_b = VirtualBus(2, message_b, MessageRecord(message_b), 8)
    grid.claim(0, 3, 2)
    grid.claim(1, 3, 2)
    bus_b.hops = [3, 3]
    buses = {1: bus_a, 2: bus_b}
    bus_b.hops[0] = 2
    assert outcome(lambda: validate_ports(grid, buses))[0] is ProtocolError
    assert outcome(lambda: check_grid_bus_agreement(grid, buses)) is not None
    monitor = InvariantMonitor(grid, buses)
    assert outcome(monitor.check) == outcome(
        lambda: check_grid_bus_agreement(grid, buses))


def test_monitor_pickled_before_fused_pass_restores():
    state = State(SegmentGrid(8, 3), {}, None)
    monitor = InvariantMonitor(*state)
    monitor.check()
    # The attribute set of a monitor pickled before the fused pass.
    monitor.__dict__["check_ports"] = True
    del monitor.__dict__["hops_checked"]
    restored = pickle.loads(pickle.dumps(monitor))
    assert not hasattr(restored, "check_ports")
    restored.check()
    assert (restored.checks_run, restored.hops_checked) == (2, 0)
