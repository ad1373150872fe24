"""``CycleController.on_edge`` against the handshake table it executes.

``on_edge`` runs the current table row in place (cached row, the shared
``guard_satisfied``, neighbouring controllers as the status wires);
:func:`repro.protocol.handshake.handshake_step` is the pure
specification the model checker replays.  For every phase, both own
bits and all sixteen neighbour ``(od, oc)`` combinations, one edge must
give the successor state ``handshake_step`` gives, call the work
function exactly when the fired row ``does_work`` (with ``(index,
cycle)``), advance ``cycle``/``transitions`` exactly when it
``advances_cycle``, and emit the same trace records the table implies.

The restore tests pickle an asynchronous ring whose controllers and
clock domains carry only the attributes they had before the edge path
cached its table row, trace flag, label and period, and check that it
resumes exactly like an uninterrupted run.
"""

from __future__ import annotations

import itertools
import pickle

from hypothesis import given, settings, strategies as st

from repro.core import Message, RMBConfig, RMBRing
from repro.core.cycles import CycleController, wire_ring
from repro.protocol.handshake import (
    HandshakePhase,
    HandshakeState,
    NeighbourBits,
    handshake_step,
)
from repro.sim.trace import TraceRecorder

BITS = list(itertools.product((False, True), repeat=2))


def run_one_edge(phase, own, left_bits, right_bits, cycle, trace):
    """One ``on_edge`` from the given state; returns what it did."""
    calls = []
    controller = CycleController(1, lambda i, c: calls.append((i, c)),
                                 trace=trace)
    left = CycleController(0, lambda i, c: None)
    right = CycleController(2, lambda i, c: None)
    left.od, left.oc = left_bits
    right.od, right.oc = right_bits
    controller.wire(left, right)
    controller.phase = phase
    controller.od, controller.oc = own
    controller.cycle = controller.transitions = cycle
    controller.on_edge(0)
    return controller, calls


def expected_records(rule, after, cycle):
    """The trace entries one fired row implies, as tuples."""
    if rule is None:
        return []
    records = []
    if rule.advances_cycle:
        records.append((0.0, "cycle_switch", "inc1",
                        (("cycle", cycle + 1),)))
    records.append((0.0, "phase", "inc1",
                    (("cycle", cycle + rule.advances_cycle),
                     ("phase", after.phase.value))))
    return records


def check_edge_matches_table(phase, own, left_bits, right_bits, cycle,
                             tracing):
    trace = TraceRecorder() if tracing else None
    controller, calls = run_one_edge(phase, own, left_bits, right_bits,
                                     cycle, trace)
    after, rule = handshake_step(HandshakeState(phase, *own),
                                 NeighbourBits(*left_bits),
                                 NeighbourBits(*right_bits))
    assert (controller.phase, controller.od, controller.oc) == tuple(after)
    worked = rule is not None and rule.does_work
    assert calls == ([(1, cycle)] if worked else [])
    advanced = rule is not None and rule.advances_cycle
    assert controller.cycle == cycle + advanced
    assert controller.transitions == cycle + advanced
    if trace is not None:
        records = [(entry.time, entry.kind, entry.subject, entry.details)
                   for entry in trace]
        assert records == expected_records(rule, after, cycle)


def test_every_phase_and_wire_combination_matches_the_table():
    for phase, own, left_bits, right_bits in itertools.product(
            HandshakePhase, BITS, BITS, BITS):
        for tracing in (False, True):
            check_edge_matches_table(phase, own, left_bits, right_bits,
                                     cycle=3, tracing=tracing)


@settings(max_examples=300, deadline=None)
@given(phase=st.sampled_from(list(HandshakePhase)),
       own=st.sampled_from(BITS), left_bits=st.sampled_from(BITS),
       right_bits=st.sampled_from(BITS), cycle=st.integers(0, 10_000),
       tracing=st.booleans())
def test_on_edge_agrees_with_handshake_step(phase, own, left_bits,
                                            right_bits, cycle, tracing):
    check_edge_matches_table(phase, own, left_bits, right_bits, cycle,
                             tracing)


@settings(max_examples=100, deadline=None)
@given(count=st.integers(2, 6),
       order=st.lists(st.integers(0, 5), min_size=1, max_size=400))
def test_ring_of_controllers_replays_the_pure_table(count, order):
    # Any edge order on a live ring: each controller stays equal to the
    # pure table replayed on snapshots of its neighbours' wires.
    controllers = [CycleController(i, lambda i, c: None)
                   for i in range(count)]
    wire_ring(controllers)
    states = [HandshakeState(HandshakePhase.WORK, False, False)] * count
    cycles = [0] * count
    for step in order:
        index = step % count
        left = states[(index - 1) % count]
        right = states[(index + 1) % count]
        after, rule = handshake_step(states[index],
                                     NeighbourBits(left.od, left.oc),
                                     NeighbourBits(right.od, right.oc))
        states[index] = after
        cycles[index] += rule is not None and rule.advances_cycle
        controllers[index].on_edge(step)
        assert [(c.phase, c.od, c.oc) for c in controllers] == \
            [tuple(state) for state in states]
        assert [c.cycle for c in controllers] == cycles


def test_disabled_trace_records_nothing():
    trace = TraceRecorder(kinds=set())
    controller, _ = run_one_edge(HandshakePhase.SWITCH_CYCLE, (True, False),
                                 (True, False), (True, False), 0, trace)
    assert controller.cycle == 1
    assert len(trace) == 0


def test_phase_setter_moves_the_row():
    controller = CycleController(0, lambda i, c: None)
    for phase in HandshakePhase:
        controller.phase = phase
        assert controller.phase is phase


# ---------------------------------------------------------------------------
# Restore
# ---------------------------------------------------------------------------

#: Instance attributes of a controller and a clock domain as pickled
#: before the edge path cached anything.
CONTROLLER_ATTRS = {"index", "od", "oc", "cycle", "phase", "transitions",
                    "_work", "_trace", "left", "right", "_domain"}
DOMAIN_ATTRS = {"sim", "name", "period", "offset", "drift", "jitter", "rng",
                "edges_delivered", "_subscriber", "_stopped", "_started"}


def async_ring() -> RMBRing:
    ring = RMBRing(RMBConfig(nodes=8, lanes=4, synchronous=False), seed=5)
    for message_id in range(10):
        source = (3 * message_id) % 8
        ring.submit(Message(message_id, source, (source + 2 + message_id % 5) % 8,
                            data_flits=6 + message_id % 4))
    return ring


def fingerprint(ring: RMBRing) -> tuple:
    controllers = ring.controllers
    assert controllers is not None
    return (
        ring.sim.now,
        ring.sim.events_executed,
        ring.stats().summary(),
        [(c.phase, c.od, c.oc, c.cycle, c.transitions) for c in controllers],
        [c._domain.edges_delivered for c in controllers],
        ring.compaction.stats.moves,
        [str(entry) for entry in ring.trace],
    )


def test_controller_pickles_carry_only_the_old_attributes():
    ring = async_ring()
    ring.run(30.0)
    for controller in ring.controllers:
        assert set(controller.__getstate__()) == CONTROLLER_ATTRS


def test_ring_pickled_with_old_attributes_resumes_exactly():
    uninterrupted = async_ring()
    uninterrupted.run(45.0)
    uninterrupted.drain()

    interrupted = async_ring()
    interrupted.run(45.0)
    for controller in interrupted.controllers:
        domain = controller._domain
        for name in set(vars(domain)) - DOMAIN_ATTRS:
            delattr(domain, name)
        assert set(vars(domain)) == DOMAIN_ATTRS
    restored = pickle.loads(pickle.dumps(interrupted))
    for controller in restored.controllers:
        assert controller._domain.effective_period > 0
    restored.drain()
    assert fingerprint(restored) == fingerprint(uninterrupted)
