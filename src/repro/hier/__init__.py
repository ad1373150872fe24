"""The multi-ring composite layer: ring fabrics, route maps, hierarchies.

A :class:`RingFabric` composes named :class:`~repro.core.network.RMBRing`
members on one shared simulator behind the single-ring workload surface
(``submit`` / ``run`` / ``drain`` / ``stats``), driving multi-leg
journeys through a declarative :class:`RouteMap` with store-and-forward
re-injection at ring boundaries.  :class:`TwoRingRMB` (the paper's
Section 2.1 two-ring variant), :class:`HierRMB` (local rings bridged by
a global ring), :class:`RMBGrid` and :class:`RMBLattice` (a ring per
row/column, or per lattice line: the paper's Section 4 grids) are all
thin route-map instances of it.
"""

from repro.hier.fabric import (
    FabricRecord,
    Hop,
    HopRecord,
    RingFabric,
    RouteMap,
)
from repro.hier.hier import GLOBAL_RING, HierRMB, HierRouteMap, local_ring_name
from repro.hier.lattice import DimensionOrderRouteMap, RMBGrid, RMBLattice
from repro.hier.tworing import MirrorRouteMap, TwoRingRMB

__all__ = [
    "DimensionOrderRouteMap",
    "FabricRecord",
    "GLOBAL_RING",
    "HierRMB",
    "HierRouteMap",
    "Hop",
    "HopRecord",
    "MirrorRouteMap",
    "RMBGrid",
    "RMBLattice",
    "RingFabric",
    "RouteMap",
    "TwoRingRMB",
    "local_ring_name",
]
