"""Derived INC port views — paper Figure 6 and Table 1 made observable.

The simulator's ground truth is the hop structure of the virtual buses;
an INC's output-port status registers are a *projection* of that state.
This module computes the projection so invariant checks, tests and the
ASCII renderer can verify that every reachable configuration corresponds
to legal Table 1 register values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.segments import SegmentGrid
from repro.core.status import CODE_MEANINGS, code_for, is_legal
from repro.core.virtual_bus import VirtualBus
from repro.errors import ProtocolError

#: Sentinel input index meaning "driven by the local PE" (the source node
#: writes to any one output bus through its single PE interface).
PE_SOURCE = -1


@dataclass(frozen=True)
class PortView:
    """Status of one INC output port at an instant.

    Attributes:
        inc: INC index.
        lane: output port lane.
        bus_id: occupying virtual bus, or ``None``.
        input_lane: lane the signal enters the INC on, ``PE_SOURCE`` when
            the local PE drives the port, or ``None`` when unused.
        code: the Table 1 register value (PE-driven ports read as
            *straight*, the convention noted in DESIGN.md).
    """

    inc: int
    lane: int
    bus_id: Optional[int]
    input_lane: Optional[int]
    code: int

    @property
    def meaning(self) -> str:
        return CODE_MEANINGS[self.code]


def port_view(
    grid: SegmentGrid,
    buses: dict[int, VirtualBus],
    inc: int,
    lane: int,
) -> PortView:
    """Compute the status of output port ``lane`` of INC ``inc``."""
    bus_id = grid.occupant(inc, lane)
    if bus_id is None:
        return PortView(inc, lane, None, None, 0b000)
    bus = buses[bus_id]
    hop = bus.hop_of_segment(inc)
    if hop is None or bus.hops[hop] != lane:
        raise ProtocolError(
            f"grid says bus {bus_id} holds segment ({inc}, {lane}) but the "
            f"bus disagrees: {bus.describe()}"
        )
    upstream = bus.upstream_lane(hop)
    if upstream is None:
        # Source INC: the PE drives the port directly.
        return PortView(inc, lane, bus_id, PE_SOURCE, 0b010)
    code = code_for(upstream, lane)
    if not is_legal(code):  # pragma: no cover - code_for already guards
        raise ProtocolError(f"illegal code {code:03b} at INC {inc} lane {lane}")
    return PortView(inc, lane, bus_id, upstream, code)


def inc_ports(
    grid: SegmentGrid, buses: dict[int, VirtualBus], inc: int
) -> list[PortView]:
    """All output-port views of one INC, lane order."""
    return [port_view(grid, buses, inc, lane) for lane in range(grid.lanes)]


def all_ports(
    grid: SegmentGrid, buses: dict[int, VirtualBus]
) -> list[PortView]:
    """Every output-port view in the ring (INC-major, lane-minor)."""
    views = []
    for inc in range(grid.nodes):
        views.extend(inc_ports(grid, buses, inc))
    return views


def _check_single_drivers(inc: int, driven_by: dict[int, list[int]]) -> None:
    for input_lane, outputs in driven_by.items():
        if len(outputs) > 1:
            raise ProtocolError(
                f"INC {inc} input lane {input_lane} drives multiple "
                f"outputs {outputs} outside a make-before-break window"
            )


def validate_ports(grid: SegmentGrid, buses: dict[int, VirtualBus]) -> None:
    """Raise :class:`ProtocolError` if any port holds an illegal code,
    or if any input port drives more than one output port in steady state.

    Steady state here means between compaction micro-sequences — the
    simulator commits moves atomically, so a transient make-before-break
    superposition is never observable at this level; observing one would
    indicate an engine bug.

    It walks only the *occupied* ports (a free port reads ``000``, which
    is legal and drives nothing) and checks codes directly instead of
    materialising a :class:`PortView` per port.  Grid/bus agreement plus
    bus shapes imply it (see :mod:`repro.core.invariants`), so the
    invariant monitor calls it only from its reference sequence; the
    explorer and the tests call it directly.
    Semantically identical to validating ``all_ports``:
    single-source codes from :func:`~repro.core.status.code_for` are
    always Table 1 legal, so the only detectable violations are
    grid/bus disagreement, over-distance connections, and multi-driven
    inputs — all of which this loop raises exactly as the view-based
    walk did, in the same INC-major, lane-minor order.
    """
    current_inc: Optional[int] = None
    driven_by: dict[int, list[int]] = {}
    for inc, lane, bus_id in grid.iter_occupied():
        if inc != current_inc:
            if current_inc is not None:
                _check_single_drivers(current_inc, driven_by)
            current_inc = inc
            driven_by = {}
        bus = buses[bus_id]
        hop = bus.hop_of_segment(inc)
        if hop is None or bus.hops[hop] != lane:
            raise ProtocolError(
                f"grid says bus {bus_id} holds segment ({inc}, {lane}) but "
                f"the bus disagrees: {bus.describe()}"
            )
        upstream = bus.upstream_lane(hop)
        if upstream is None:
            continue  # source INC: PE-driven, reads straight (010)
        code_for(upstream, lane)  # raises when the lanes are > 1 apart
        driven_by.setdefault(upstream, []).append(lane)
    if current_inc is not None:
        _check_single_drivers(current_inc, driven_by)
