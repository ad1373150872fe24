"""Tests for the n-dimensional lattice of RMB rings."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.flits import Message
from repro.errors import ConfigurationError, ProtocolError
from repro.hier import RMBLattice


def send(lattice, message_id, source, destination, data_flits):
    lattice.submit(Message(message_id, source, destination,
                           data_flits=data_flits,
                           created_at=lattice.sim.now))
    return lattice.journeys[message_id]


class TestConstruction:
    def test_ring_count_2d(self):
        lattice = RMBLattice((4, 6), lanes=2)
        # 6 rings along dim 0 (one per column) + 4 along dim 1.
        assert len(lattice.rings) == 6 + 4
        assert lattice.nodes == 24

    def test_ring_count_3d(self):
        lattice = RMBLattice((4, 4, 4), lanes=2)
        assert len(lattice.rings) == 3 * 16
        assert lattice.nodes == 64

    def test_shape_validation(self):
        with pytest.raises(ConfigurationError):
            RMBLattice((4, 3), lanes=2)    # odd dimension
        with pytest.raises(ConfigurationError):
            RMBLattice((4, 2), lanes=2)    # too small
        with pytest.raises(ConfigurationError):
            RMBLattice((), lanes=2)        # no dimensions

    def test_coordinate_round_trip(self):
        lattice = RMBLattice((4, 6, 8), lanes=1)
        for node in (0, 17, 100, lattice.nodes - 1):
            assert lattice.node_id(*lattice.coordinates(node)) == node

    def test_ring_for_lookup(self):
        lattice = RMBLattice((4, 4), lanes=2)
        ring = lattice.ring_for(0, (2, 3))
        assert ring is lattice.ring("d0@(3,)")
        assert ring.config.nodes == 4


class TestJourneys:
    def test_single_dimension_is_one_leg(self):
        lattice = RMBLattice((4, 4), lanes=2)
        journey = send(lattice, 0, lattice.node_id(1, 0),
                       lattice.node_id(1, 3), data_flits=4)
        lattice.drain()
        assert journey.finished
        assert journey.hops == 1

    def test_three_dimensional_journey(self):
        lattice = RMBLattice((4, 4, 4), lanes=2)
        journey = send(lattice, 0, lattice.node_id(0, 0, 0),
                       lattice.node_id(2, 3, 1), data_flits=4)
        lattice.drain()
        assert journey.finished
        assert journey.hops == 3
        assert journey.rings_visited() == ("d0@(0, 0)", "d1@(2, 0)",
                                           "d2@(2, 3)")
        # Legs run strictly in sequence.
        for earlier, later in zip(journey.trail, journey.trail[1:]):
            assert later.message.created_at >= earlier.completed_at

    def test_leg_rings_are_correct(self):
        lattice = RMBLattice((4, 4), lanes=2)
        journey = send(lattice, 0, lattice.node_id(0, 1),
                       lattice.node_id(2, 3), data_flits=4)
        lattice.drain()
        first, second = journey.trail
        # Leg 1 crosses dim 0: from row 0 to row 2 within column 1.
        assert first.message.source == 0
        assert first.message.destination == 2
        # Leg 2 crosses dim 1: from column 1 to column 3 within row 2.
        assert second.message.source == 1
        assert second.message.destination == 3

    def test_validation(self):
        lattice = RMBLattice((4, 4), lanes=2)
        send(lattice, 0, 0, 5, data_flits=1)
        with pytest.raises(ProtocolError):
            send(lattice, 0, 1, 2, data_flits=1)     # duplicate id
        with pytest.raises(ProtocolError):
            send(lattice, 1, 0, 999, data_flits=1)   # out of range
        with pytest.raises(ConfigurationError):
            send(lattice, 2, 7, 7, data_flits=1)     # self-message

    def test_batch_completes_3d(self):
        lattice = RMBLattice((4, 4, 4), lanes=2)
        for index in range(20):
            source = (index * 7) % 64
            destination = (source + 13 + index) % 64
            if destination == source:
                destination = (destination + 1) % 64
            send(lattice, index, source, destination, data_flits=6)
        lattice.drain()
        stats = lattice.journey_run_stats()
        assert stats.completed == 20
        assert stats.latency.count == 20

    def test_turn_latency_recorded(self):
        lattice = RMBLattice((4, 4), lanes=2)
        send(lattice, 0, lattice.node_id(0, 0), lattice.node_id(2, 2),
             data_flits=4)
        lattice.drain()
        assert lattice.turn_latency().count == 1


@settings(max_examples=8, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 63), st.integers(0, 63)).filter(
        lambda pair: pair[0] != pair[1]
    ),
    min_size=1, max_size=8,
))
def test_any_batch_drains_on_3d_lattice(pairs):
    lattice = RMBLattice((4, 4, 4), lanes=2)
    for index, (source, destination) in enumerate(pairs):
        send(lattice, index, source, destination, data_flits=index % 4)
    lattice.drain()
    assert lattice.journey_run_stats().completed == len(pairs)
    for ring in lattice.rings.values():
        assert ring.grid.occupied_segments() == 0
