"""Regenerate the grid/lattice golden files.

Fixed-seed :class:`~repro.hier.lattice.RMBGrid` (4x6) and
:class:`~repro.hier.lattice.RMBLattice` (4x4x4) scenarios, at seeds
{0, 5} on synchronous and asynchronous clocks, plus three
:func:`~repro.apps.stencil.run_stencil` runs.  Each scenario offers two
waves of scattered traffic (the second 64 ticks in) and drains.  The
outputs are committed byte-for-byte under ``tests/fixtures/grid_golden/``:

* ``journeys.txt`` — per scenario: drain span, final simulation time,
  turn-wait count and mean, and every journey's end-to-end latency and
  per-turn waits (journey creation to each store-and-forward turn);
* ``stencil.json`` — ``run_stencil(...).as_dict()`` per parameter set.

``tests/hier/test_grid_golden.py`` rebuilds the same runs and
byte-compares.  The files were generated *before* the grid and lattice
were rebuilt on :class:`~repro.hier.fabric.RingFabric`, by an equivalent
script on the old ``submit(id, source, destination, flits)`` API;
regenerating them is only legitimate for an intentional behaviour
change::

    PYTHONPATH=src python tests/fixtures/regen_grid_golden.py
"""

from __future__ import annotations

import json
import pathlib

from repro.apps.stencil import run_stencil
from repro.core.config import RMBConfig
from repro.core.flits import Message
from repro.hier.lattice import RMBGrid, RMBLattice
from repro.sim import RandomStream

HERE = pathlib.Path(__file__).resolve().parent

FLITS = 8
SEEDS = (0, 5)
STENCILS = ((4, 4, 2, 3, 4), (6, 4, 3, 2, 8), (4, 8, 1, 2, 2))


def _pairs(nodes: int, count: int, seed: int) -> list[tuple[int, int]]:
    rng = RandomStream(1000 + seed)
    pairs = []
    for _ in range(count):
        source = rng.randint(0, nodes - 1)
        pairs.append((source, (source + rng.randint(1, nodes - 1)) % nodes))
    return pairs


def _scenario(kind: str, seed: int, synchronous: bool) -> list[str]:
    base = RMBConfig(nodes=8, lanes=2, cycle_period=2.0,
                     synchronous=synchronous)
    network: RMBLattice
    if kind == "grid":
        network = RMBGrid(4, 6, lanes=2, base_config=base, seed=seed)
    else:
        network = RMBLattice((4, 4, 4), lanes=2, base_config=base, seed=seed)
    pairs = _pairs(network.nodes, 2 * network.nodes, seed)
    half = len(pairs) // 2
    for wave in (range(half), range(half, len(pairs))):
        for index in wave:
            source, destination = pairs[index]
            network.submit(Message(index, source, destination,
                                   data_flits=FLITS,
                                   created_at=network.sim.now))
        if wave.start == 0:
            network.run(64)
    span = network.drain()
    turns = network.turn_latency()
    lines = [
        f"scenario {kind} seed={seed} {'sync' if synchronous else 'async'}",
        f"drain_span={span!r} final_now={network.sim.now!r}",
        f"turn_wait count={turns.count} mean={turns.mean:.9f}",
    ]
    for index, (source, destination) in enumerate(pairs):
        journey = network.journeys[index]
        waits = [hop.submitted_at - journey.message.created_at
                 for hop in journey.trail[1:]]
        lines.append(f"journey {index} {source}->{destination} "
                     f"latency={journey.latency()!r} turns={waits!r}")
    return lines


def build_outputs() -> dict[str, str]:
    lines: list[str] = []
    for kind in ("grid", "lattice"):
        for seed in SEEDS:
            for synchronous in (True, False):
                lines.extend(_scenario(kind, seed, synchronous))
    stencil = {str(args): run_stencil(*args).as_dict() for args in STENCILS}
    return {
        "journeys.txt": "\n".join(lines) + "\n",
        "stencil.json": json.dumps(stencil, indent=2, sort_keys=True) + "\n",
    }


def main() -> None:
    target = HERE / "grid_golden"
    target.mkdir(exist_ok=True)
    for filename, text in build_outputs().items():
        (target / filename).write_text(text, encoding="utf-8")
        print(f"wrote {target / filename}")


if __name__ == "__main__":
    main()
