"""Runtime invariant monitors for the RMB simulator.

Each check is a pure function over current simulator state that raises
:class:`~repro.errors.InvariantViolation` with a precise description on
failure.  :class:`InvariantMonitor` bundles them for periodic execution
during long runs — every experiment in ``benchmarks/`` runs with the
monitor armed, so reported numbers come from runs whose protocol state was
continuously validated.

The checks encode the paper's correctness claims:

* structural — grid/bus agreement, lane bounds, ±1 hop adjacency
  (the "virtual bus is never disconnected" property behind Figure 4);
* monotonicity — a placed hop only ever moves downward;
* Table 1 — all port registers hold legal codes;
* Lemma 1 — neighbouring INCs' cycle counts differ by at most one;
* Theorem 1 (safety half) — distinct virtual buses never share a segment,
  so every transaction is maintained unchanged; the liveness half (all
  requests complete) is asserted by :func:`repro.core.routing.drain`.

:meth:`InvariantMonitor.check` does not call the checks one by one: it
makes one fused pass over every bus's hops that tests lane bounds, ±1
adjacency, span, the grid cell of each held hop and the monotonicity
compare together, then matches the held-hop total against the grid's
occupied count, which rules out orphan cells and unknown bus ids.  The
Table 1 port check needs no walk of its own: every port code is
``code_for`` of two adjacent hops, legal when they differ by at most
one, and one input lane feeding two outputs would need two buses
holding the same upstream cell, which agreement already rules out.
Every check still covers the whole ring on every cycle — no dirty-column
shortcut — because the monitor exists to catch mutations that bypass
the grid's bookkeeping.  Whenever the fused pass sees anything off, the
reference sequence (:meth:`InvariantMonitor.check_reference`) reruns to
report the violation, so the exception is the one the individual checks
raise in their documented order.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.cycles import CycleController
from repro.core.ports import validate_ports
from repro.core.segments import SegmentGrid
from repro.core.status import PortHealth
from repro.core.virtual_bus import VirtualBus
from repro.errors import InvariantViolation, ProtocolError


def check_grid_bus_agreement(
    grid: SegmentGrid, buses: dict[int, VirtualBus]
) -> None:
    """Grid occupancy and bus hop lists must describe the same state."""
    seen: dict[tuple[int, int], int] = {}
    for segment, lane, bus_id in grid.iter_occupied():
        if bus_id not in buses:
            raise InvariantViolation(
                f"segment ({segment}, {lane}) held by unknown bus {bus_id}"
            )
        seen[(segment, lane)] = bus_id
    for bus in buses.values():
        check_held_within_hops(bus)
        for hop in bus.held_hops():
            key = (bus.segment_index(hop), bus.hops[hop])
            if seen.get(key) != bus.bus_id:
                raise InvariantViolation(
                    f"{bus.describe()}: hop {hop} claims segment {key} but "
                    f"the grid records {seen.get(key)!r}"
                )
            del seen[key]
    if seen:
        raise InvariantViolation(
            f"grid holds segments owned by no live hop: {sorted(seen)}"
        )


def check_held_within_hops(bus: VirtualBus) -> None:
    """A bus cannot still hold more hops than it has."""
    if bus.released_from is not None and bus.released_from > len(bus.hops):
        raise InvariantViolation(
            f"{bus.describe()}: released_from {bus.released_from} lies "
            f"past its {len(bus.hops)} hops"
        )


def check_bus_shapes(buses: dict[int, VirtualBus], lanes: int) -> None:
    """Every bus is a connected ±1 lane path within bounds."""
    for bus in buses.values():
        try:
            bus.validate_shape(lanes)
        except ProtocolError as exc:
            raise InvariantViolation(str(exc)) from exc


class LaneMonotonicity:
    """Tracks that each hop's lane never increases after placement.

    Compaction moves only downward (the paper: "the motion of virtual
    buses for the purpose of compaction is only downwards"), and header
    extension appends fresh hops; so per-hop lanes must be non-increasing
    over time.
    """

    def __init__(self) -> None:
        self._last: dict[tuple[int, int], int] = {}   # (bus, hop) -> lane

    def reset(self) -> None:
        """Forget all placements (called when a fault repair lands, since
        an evacuation off the repaired segment may have moved hops up)."""
        self._last.clear()

    def observe(self, buses: dict[int, VirtualBus],
                grid: Optional[SegmentGrid] = None) -> None:
        live_keys = set()
        for bus in buses.values():
            check_held_within_hops(bus)
            for hop in bus.held_hops():
                key = (bus.bus_id, hop)
                live_keys.add(key)
                lane = bus.hops[hop]
                previous = self._last.get(key)
                if previous is not None and lane > previous:
                    # An upward move is legal only as a fault evacuation:
                    # the lane the hop left must be DYING or DEAD.
                    segment = bus.segment_index(hop)
                    escaped_fault = (
                        grid is not None
                        and grid.health(segment, previous) is not PortHealth.OK
                    )
                    if not escaped_fault:
                        raise InvariantViolation(
                            f"{bus.describe()}: hop {hop} rose from lane "
                            f"{previous} to {lane}; compaction must be "
                            "downward except when evacuating a faulty segment"
                        )
                self._last[key] = lane
        # Forget released hops so bus ids can be reused safely.
        for key in list(self._last):
            if key not in live_keys:
                del self._last[key]


def check_no_dead_occupancy(grid: SegmentGrid) -> None:
    """No virtual bus may keep holding a DEAD segment.

    The fault manager kills the occupant the instant a segment dies, so
    any occupied DEAD segment signals a bug in the teardown path.  (DYING
    segments may legitimately stay occupied through the make-before-break
    evacuation window.)
    """
    for segment, lane, health in grid.faulty_segments():
        if health is PortHealth.DEAD and grid.occupant(segment, lane) is not None:
            raise InvariantViolation(
                f"dead segment ({segment}, {lane}) still carries bus "
                f"{grid.occupant(segment, lane)}"
            )


def check_lemma1(controllers: Sequence[CycleController]) -> None:
    """Lemma 1: neighbouring cycle counts differ by at most one."""
    count = len(controllers)
    for index in range(count):
        left = controllers[index]
        right = controllers[(index + 1) % count]
        skew = abs(left.cycle - right.cycle)
        if skew > 1:
            raise InvariantViolation(
                f"Lemma 1 violated: INC {left.index} at cycle {left.cycle}, "
                f"INC {right.index} at cycle {right.cycle} (skew {skew})"
            )


class InvariantMonitor:
    """Runs all applicable checks against a ring's live state.

    :meth:`check` makes one fused pass over every bus's hops (see the
    module docstring); :meth:`check_reference` is the four-walk
    sequence of the individual checks above, which the fused pass falls
    back to for the error report whenever it sees anything off.
    """

    def __init__(
        self,
        grid: SegmentGrid,
        buses: dict[int, VirtualBus],
        controllers: Optional[Sequence[CycleController]] = None,
    ) -> None:
        self.grid = grid
        self.buses = buses
        self.controllers = controllers
        self.monotonicity = LaneMonotonicity()
        self.checks_run = 0
        # Held hops walked by the fused pass, cumulative: a deterministic
        # work counter, one per (bus, held hop) per check.
        self.hops_checked = 0

    def __setstate__(self, state: dict[str, object]) -> None:
        # Monitors pickled before the fused pass carry the retired
        # check_ports flag and no work counter.
        state.pop("check_ports", None)
        state.setdefault("hops_checked", 0)
        self.__dict__.update(state)

    def check(self) -> None:
        """Run every check once; raises on the first violation.

        Raises exactly what :meth:`check_reference` raises: a clean
        fused pass implies every reference check passes, and anything
        else reruns the reference sequence to report the violation.
        """
        if not self._fused_pass():
            self.check_reference()
            return
        if self.controllers is not None:
            check_lemma1(self.controllers)
        self.checks_run += 1

    def check_reference(self) -> None:
        """The unfused check sequence: one walk per invariant.

        The fused pass's error reporter and its test oracle.  The order
        (agreement, shapes, dead occupancy, monotonicity, ports, Lemma 1)
        fixes which violation is reported when several hold at once.
        """
        check_grid_bus_agreement(self.grid, self.buses)
        check_bus_shapes(self.buses, self.grid.lanes)
        check_no_dead_occupancy(self.grid)
        self.monotonicity.observe(self.buses, self.grid)
        try:
            validate_ports(self.grid, self.buses)
        except ProtocolError as exc:
            raise InvariantViolation(str(exc)) from exc
        if self.controllers is not None:
            check_lemma1(self.controllers)
        self.checks_run += 1

    def _fused_pass(self) -> bool:
        """Walk every hop once; True iff agreement, shapes, dead
        occupancy, monotonicity and (implied) ports all hold.

        Commits the new monotonicity snapshot only when returning True;
        a False leaves all state for :meth:`check_reference` to judge.
        """
        grid = self.grid
        nodes = grid.nodes
        lanes = grid.lanes
        occupant = grid._occupant
        health = grid._health
        ok = PortHealth.OK
        last = self.monotonicity._last
        snapshot: dict[tuple[int, int], int] = {}
        held_total = 0
        for bus_id, bus in self.buses.items():
            hops = bus.hops
            count = len(hops)
            held = bus.released_from
            if held is None:
                held = count
            message = bus.message
            source = message.source
            if (bus.bus_id != bus_id or bus.ring_size != nodes
                    or not 0 <= held <= count
                    or count > (message.destination - source) % nodes):
                return False
            held_total += held
            below = hops[0] if count else 0
            for hop, lane in enumerate(hops):
                if not 0 <= lane < lanes or not -1 <= lane - below <= 1:
                    return False
                below = lane
                if hop < held:
                    segment = (source + hop) % nodes
                    if occupant[segment][lane] != bus_id:
                        return False
                    key = (bus_id, hop)
                    previous = last.get(key)
                    if (previous is not None and lane > previous
                            and health[segment][previous] is ok):
                        return False
                    snapshot[key] = lane
        self.hops_checked += held_total
        # Every held hop sits on a distinct cell that names its bus, so
        # equal totals leave no occupied cell unaccounted for.
        if held_total != grid._occupied_count:
            return False
        for (segment, lane), state in grid._faulty_index.items():
            if state is PortHealth.DEAD and occupant[segment][lane] is not None:
                return False
        self.monotonicity._last = snapshot
        return True
