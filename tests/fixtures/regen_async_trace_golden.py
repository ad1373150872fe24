"""Regenerate the asynchronous-ring trace golden files.

One fixed-seed :class:`~repro.core.network.RMBRing` with
``synchronous=False`` — every INC on its own skewed clock domain, running
the odd/even handshake of paper Section 2.5 — and the full trace enabled.
Its outputs are committed byte-for-byte under
``tests/fixtures/async_trace_golden/``:

* ``trace.txt`` — every trace entry, ``phase`` and ``cycle_switch``
  records of the handshake FSMs included, with times written by
  ``repr`` so that a jittered clock edge moving by one ulp shows;
* ``summary.json`` — the run's ``stats().summary()`` plus drain timing
  and the per-INC cycle counts and transitions.

``tests/core/test_async_trace_golden.py`` rebuilds the identical run and
byte-compares.  These files pin the clock-edge path
(``ClockDomain._edge`` -> ``CycleController.on_edge`` ->
``CompactionEngine.inc_pass``); regenerating them is only legitimate for
an intentional behaviour change::

    PYTHONPATH=src python tests/fixtures/regen_async_trace_golden.py
"""

from __future__ import annotations

import json
import pathlib

from repro.core.config import RMBConfig
from repro.core.flits import Message
from repro.core.network import RMBRing
from repro.sim.trace import TraceEntry

HERE = pathlib.Path(__file__).resolve().parent
TARGET = HERE / "async_trace_golden"

NODES = 8
LANES = 4
SEED = 11

#: (message_id, source, destination, data_flits)
WAVE_ONE = (
    (0, 0, 5, 12),
    (1, 1, 6, 10),
    (2, 2, 7, 8),
    (3, 3, 1, 12),
    (4, 4, 2, 6),
    (5, 6, 3, 10),
    (6, 7, 4, 4),
)

WAVE_TWO = (
    (7, 5, 2, 8),
    (8, 0, 3, 6),
    (9, 2, 6, 12),
    (10, 6, 0, 4),
    (11, 3, 7, 8),
)


def _submit(ring: RMBRing, wave) -> None:
    now = ring.sim.now
    for message_id, source, destination, flits in wave:
        ring.submit(Message(message_id=message_id, source=source,
                            destination=destination, data_flits=flits,
                            created_at=now))


def _line(entry: TraceEntry) -> str:
    details = " ".join(f"{key}={value!r}" for key, value in entry.details)
    return f"{entry.time!r} {entry.kind} {entry.subject} {details}".rstrip()


def build_ring() -> RMBRing:
    """The golden scenario, drained (the full trace kept)."""
    ring = RMBRing(RMBConfig(nodes=NODES, lanes=LANES, synchronous=False),
                   seed=SEED)
    _submit(ring, WAVE_ONE)
    ring.run(40.0)
    _submit(ring, WAVE_TWO)
    ring.drain()
    return ring


def build_outputs() -> dict[str, str]:
    ring = build_ring()
    controllers = ring.controllers
    assert controllers is not None
    summary: dict[str, object] = {
        key: value for key, value in sorted(ring.stats().summary().items())}
    summary["final_time"] = ring.sim.now
    summary["cycles"] = [controller.cycle for controller in controllers]
    summary["transitions"] = [controller.transitions
                              for controller in controllers]
    return {
        "trace.txt": "\n".join(_line(entry) for entry in ring.trace) + "\n",
        "summary.json": json.dumps(summary, indent=2, sort_keys=True) + "\n",
    }


def main() -> None:
    TARGET.mkdir(exist_ok=True)
    for filename, text in build_outputs().items():
        (TARGET / filename).write_text(text, encoding="utf-8")
        print(f"wrote {TARGET / filename}")


if __name__ == "__main__":
    main()
