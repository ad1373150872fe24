"""Tests for the 2-D grid of RMB rings."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import RMBConfig
from repro.core.flits import Message
from repro.errors import ConfigurationError, ProtocolError
from repro.hier import RMBGrid


def make_grid(rows=4, cols=4, lanes=2, **kwargs):
    return RMBGrid(rows, cols, lanes, **kwargs)


def send(grid, message_id, source, destination, data_flits):
    grid.submit(Message(message_id, source, destination,
                        data_flits=data_flits, created_at=grid.sim.now))
    return grid.journeys[message_id]


class TestConstruction:
    def test_ring_counts(self):
        grid = make_grid(4, 6, 2)
        names = grid.member_names()
        assert names == tuple(f"row{row}" for row in range(4)) + \
            tuple(f"col{col}" for col in range(6))
        assert grid.ring("row0").config.nodes == 6
        assert grid.ring("col0").config.nodes == 4
        assert grid.nodes == 24

    def test_dimension_validation(self):
        with pytest.raises(ConfigurationError):
            RMBGrid(3, 4, 2)   # odd rows
        with pytest.raises(ConfigurationError):
            RMBGrid(4, 2, 2)   # too few cols

    def test_addressing_round_trip(self):
        grid = make_grid(4, 6)
        for node in range(grid.nodes):
            row, col = grid.coordinates(node)
            assert grid.node_id(row, col) == node


class TestRouting:
    def test_same_row_single_leg(self):
        grid = make_grid()
        journey = send(grid, 0, grid.node_id(1, 0), grid.node_id(1, 3),
                       data_flits=8)
        grid.drain()
        assert journey.finished
        assert journey.hops == 1
        assert journey.rings_visited() == ("row1",)

    def test_same_column_single_leg(self):
        grid = make_grid()
        journey = send(grid, 0, grid.node_id(0, 2), grid.node_id(3, 2),
                       data_flits=8)
        grid.drain()
        assert journey.finished
        assert journey.hops == 1
        assert journey.rings_visited() == ("col2",)

    def test_two_leg_journey_turns_at_destination_column(self):
        grid = make_grid()
        journey = send(grid, 0, grid.node_id(0, 1), grid.node_id(2, 3),
                       data_flits=8)
        grid.drain()
        assert journey.finished
        assert journey.hops == 2
        first, second = journey.trail
        # Leg 1 rode row ring 0 from column 1 to column 3.
        assert first.ring == "row0"
        assert first.message.source == 1
        assert first.message.destination == 3
        # Leg 2 rode column ring 3 from row 0 to row 2.
        assert second.ring == "col3"
        assert second.message.source == 0
        assert second.message.destination == 2
        # The second leg starts only after the first completes.
        assert second.message.created_at >= first.completed_at

    def test_validation(self):
        grid = make_grid()
        send(grid, 0, 0, 5, data_flits=1)
        with pytest.raises(ProtocolError):
            send(grid, 0, 1, 2, data_flits=1)    # duplicate id
        with pytest.raises(ProtocolError):
            send(grid, 1, 0, 99, data_flits=1)   # out of range
        with pytest.raises(ConfigurationError):
            send(grid, 2, 3, 3, data_flits=1)    # self-message

    def test_full_transpose_traffic(self):
        grid = make_grid(4, 4, lanes=2)
        message_id = 0
        for row in range(4):
            for col in range(4):
                if row == col:
                    continue
                send(grid, message_id, grid.node_id(row, col),
                     grid.node_id(col, row), data_flits=6)
                message_id += 1
        grid.drain()
        stats = grid.journey_run_stats()
        assert stats.completed == message_id
        assert stats.latency.count == message_id
        assert stats.latency.mean > 0
        # Two-leg journeys recorded turn delays.
        assert grid.turn_latency().count > 0

    def test_latency_orders_single_vs_double_leg(self):
        grid = make_grid(6, 6, lanes=2)
        near = send(grid, 0, grid.node_id(0, 0), grid.node_id(0, 1),
                    data_flits=8)
        far = send(grid, 1, grid.node_id(0, 0), grid.node_id(3, 3),
                   data_flits=8)
        grid.drain()
        assert near.latency() < far.latency()


def all_to_all(max_retries):
    config = RMBConfig(nodes=4, lanes=1, cycle_period=2.0,
                       max_retries=max_retries)
    grid = RMBGrid(4, 4, lanes=1, base_config=config,
                   check_invariants=False)
    message_id = 0
    for source in range(16):
        for destination in range(16):
            if source != destination:
                send(grid, message_id, source, destination, data_flits=4)
                message_id += 1
    return grid, message_id


def test_drain_ends_when_legs_are_abandoned():
    """A leg abandoned under a finite retry budget ends its journey.

    With one lane and no retries, all-to-all traffic on a 4x4 grid
    abandons 56 journeys; the drain must still finish, and the run
    stats must count them, instead of spinning to ``max_ticks``.
    """
    grid, message_id = all_to_all(max_retries=0)
    assert grid.drain(max_ticks=20_000) < 2_000
    stats = grid.journey_run_stats()
    assert stats.abandoned == 56
    assert stats.completed == message_id - 56
    assert grid.lifecycle_census() == {}


def test_drain_timeout_reports_a_lifecycle_census():
    grid, _ = all_to_all(max_retries=None)
    with pytest.raises(ProtocolError, match=r"grid 4x4 failed .*row0 "):
        grid.drain(max_ticks=16)


@settings(max_examples=10, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 15)).filter(
        lambda pair: pair[0] != pair[1]
    ),
    min_size=1, max_size=10,
))
def test_any_batch_drains_on_grid(pairs):
    grid = RMBGrid(4, 4, lanes=2, check_invariants=False)
    for index, (source, destination) in enumerate(pairs):
        send(grid, index, source, destination, data_flits=index % 5)
    grid.drain()
    assert grid.journey_run_stats().completed == len(pairs)
    for ring in grid.rings.values():
        assert ring.grid.occupied_segments() == 0


@settings(max_examples=15, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 23), st.integers(0, 23)).filter(
        lambda pair: pair[0] != pair[1]
    ),
    min_size=1, max_size=10,
))
def test_hops_match_differing_coordinates_row_first(pairs):
    grid = RMBGrid(4, 6, lanes=2, check_invariants=False)
    for index, (source, destination) in enumerate(pairs):
        send(grid, index, source, destination, data_flits=2)
    grid.drain()
    for index, (source, destination) in enumerate(pairs):
        (src_row, src_col) = grid.coordinates(source)
        (dst_row, dst_col) = grid.coordinates(destination)
        expected = []
        if src_col != dst_col:
            expected.append(f"row{src_row}")
        if src_row != dst_row:
            expected.append(f"col{dst_col}")
        journey = grid.journeys[index]
        assert journey.hops == (src_row != dst_row) + (src_col != dst_col)
        assert journey.rings_visited() == tuple(expected)
