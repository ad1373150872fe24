"""Grids and n-D lattices of RMB rings as :class:`RingFabric` route maps.

The paper's Section 4 closes with "the design of reconfigurable multiple
bus systems for 2- and 3-D grid connected computers" as future work;
this module realises it.  A processor lattice of shape
``(s_0, ..., s_{n-1})`` gets one RMB ring per axis-aligned *line* (all
coordinates fixed but one), so every node belongs to ``n`` rings — the
row/column-bus mesh of Matsumae, generalised to ``n`` dimensions.

Routing is dimension-ordered: :class:`DimensionOrderRouteMap` plans one
hop per differing coordinate, crossing dimensions in a fixed order, and
the fabric re-injects each leg store-and-forward at the turning node —
the honest cost of composing circuit-switched rings.  :class:`RMBGrid`
is the 2-D case that rides its row ring first, then its column ring.
Ring sizes inherit the RMB's even-and-at-least-4 requirement.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import RMBConfig
from repro.core.flits import Message
from repro.core.network import RMBRing
from repro.errors import ConfigurationError, ProtocolError
from repro.hier.fabric import Hop, RingFabric, RouteMap
from repro.sim.monitor import Tally

#: One member ring: the dimension it runs along, plus the coordinates of
#: every other dimension (in dimension order).
Line = Tuple[int, Tuple[int, ...]]


@dataclass(frozen=True)
class DimensionOrderRouteMap(RouteMap):
    """Dimension-ordered routing over the line rings of a lattice.

    Attributes:
        shape: processors per dimension; node ids are row-major (the
            last dimension varies fastest).
        order: the order in which differing dimensions are crossed.
        ring_names: member ring name of every line.
    """

    shape: Tuple[int, ...]
    order: Tuple[int, ...]
    ring_names: Dict[Line, str]

    def coordinates(self, node: int) -> Tuple[int, ...]:
        """Lattice coordinates of node id ``node``."""
        if not 0 <= node < math.prod(self.shape):
            raise ProtocolError(
                f"lattice address {node} out of range for shape "
                f"{self.shape} (0..{math.prod(self.shape) - 1})"
            )
        coords: List[int] = []
        for size in reversed(self.shape):
            node, coordinate = divmod(node, size)
            coords.append(coordinate)
        return tuple(reversed(coords))

    def plan(self, message: Message) -> Tuple[Hop, ...]:
        if message.extra_destinations:
            raise ProtocolError(
                f"message {message.message_id} multicasts; a lattice "
                f"carries unicast journeys only"
            )
        position = list(self.coordinates(message.source))
        target = self.coordinates(message.destination)
        hops: List[Hop] = []
        for dim in self.order:
            if position[dim] == target[dim]:
                continue
            fixed = tuple(position[:dim] + position[dim + 1:])
            hops.append(Hop(ring=self.ring_names[(dim, fixed)],
                            source=position[dim], destination=target[dim]))
            position[dim] = target[dim]
        return tuple(hops)


class RMBLattice(RingFabric):
    """An n-dimensional lattice of RMB rings, crossed in ascending dimension.

    Args:
        shape: processors per dimension; every entry even and >= 4.
        lanes: lane count for every ring.
        base_config: optional parameter template (cycle period, retry
            policy, ...); ``nodes``/``lanes`` are overridden per ring.
        seed: root seed; see :meth:`_lines` for each ring's seed.
        check_invariants: arm each member ring's invariant monitor.
    """

    kind = "lattice"

    def __init__(
        self,
        shape: Sequence[int],
        lanes: int,
        base_config: Optional[RMBConfig] = None,
        seed: int = 0,
        check_invariants: bool = False,
    ) -> None:
        dims = tuple(shape)
        if not dims or any(size < 4 or size % 2 for size in dims):
            raise ConfigurationError(
                f"a {self.kind} needs at least one dimension and every "
                f"dimension even and >= 4, got {dims}"
            )
        lines = self._lines(dims, seed)
        super().__init__(
            DimensionOrderRouteMap(
                dims, self._crossing_order(dims),
                {line: name for line, name, _ in lines}),
            name=f"{self.kind} {'x'.join(map(str, dims))}",
        )
        self.shape = dims
        self.lanes = lanes
        self.nodes = math.prod(dims)
        template = base_config if base_config is not None else \
            RMBConfig(nodes=max(dims), lanes=lanes, cycle_period=2.0)
        for (dim, _), name, ring_seed in lines:
            self.add_ring(RMBRing(
                template.with_overrides(nodes=dims[dim], lanes=lanes),
                seed=ring_seed, sim=self.sim, name=name,
                check_invariants=check_invariants, trace_kinds=set(),
            ))

    def _crossing_order(self, shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return tuple(range(len(shape)))

    def _lines(self, shape: Tuple[int, ...],
               seed: int) -> List[Tuple[Line, str, int]]:
        """``(line, ring name, ring seed)`` in ring construction order.

        Dimensions ascending; rings are named ``d{dim}@{fixed}`` and
        seeded ``seed + 1``, ``seed + 2``, ... in that order.
        """
        lines: List[Tuple[Line, str, int]] = []
        for dim in range(len(shape)):
            others = [range(size) for axis, size in enumerate(shape)
                      if axis != dim]
            for fixed in itertools.product(*others):
                lines.append(((dim, fixed), f"d{dim}@{fixed}",
                              seed + len(lines) + 1))
        return lines

    @property
    def _map(self) -> DimensionOrderRouteMap:
        route_map = self.route_map
        assert isinstance(route_map, DimensionOrderRouteMap)
        return route_map

    def node_id(self, *coords: int) -> int:
        """Node id of the processor at ``coords``."""
        node = 0
        for size, coordinate in zip(self.shape, coords):
            node = node * size + coordinate
        return node

    def coordinates(self, node: int) -> Tuple[int, ...]:
        """Lattice coordinates of node id ``node``."""
        return self._map.coordinates(node)

    def ring_for(self, dim: int, coords: Sequence[int]) -> RMBRing:
        """The ring running along ``dim`` through the given coordinates."""
        fixed = tuple(coords[:dim]) + tuple(coords[dim + 1:])
        return self.rings[self._map.ring_names[(dim, fixed)]]

    def turn_latency(self) -> Tally:
        """Wait from each journey's creation to each of its turns."""
        tally = Tally("turn-wait")
        for journey in self.journeys.values():
            for hop in journey.trail[1:]:
                tally.add(hop.submitted_at - journey.message.created_at)
        return tally

    def describe(self) -> str:
        shape = "x".join(str(size) for size in self.shape)
        return (f"rmb-{self.kind}({shape}, k={self.lanes}, "
                f"{len(self.rings)} rings)")


class RMBGrid(RMBLattice):
    """A ``rows x cols`` grid: one RMB ring per row and per column.

    A message rides its source's row ring to the destination column,
    turns, and rides that column's ring to the destination row.  Rings
    are named ``row{r}`` / ``col{c}`` and seeded ``seed*1009 + r`` /
    ``seed*2003 + c``.
    """

    kind = "grid"

    def __init__(
        self,
        rows: int,
        cols: int,
        lanes: int,
        base_config: Optional[RMBConfig] = None,
        seed: int = 0,
        check_invariants: bool = True,
    ) -> None:
        super().__init__((rows, cols), lanes, base_config, seed,
                         check_invariants)

    def _crossing_order(self, shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return (1, 0)

    def _lines(self, shape: Tuple[int, ...],
               seed: int) -> List[Tuple[Line, str, int]]:
        rows, cols = shape
        lines: List[Tuple[Line, str, int]] = [
            ((1, (row,)), f"row{row}", seed * 1009 + row)
            for row in range(rows)]
        lines.extend(((0, (col,)), f"col{col}", seed * 2003 + col)
                     for col in range(cols))
        return lines
