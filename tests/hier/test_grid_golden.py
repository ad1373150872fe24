"""Differential pin: RMBGrid/RMBLattice-as-RingFabric vs the pre-refactor run.

The files under ``tests/fixtures/grid_golden/`` were generated before the
grid and lattice were rebuilt on :class:`~repro.hier.fabric.RingFabric`
(see ``tests/fixtures/regen_grid_golden.py``).  Rebuilding the same
fixed-seed scenarios must reproduce them byte for byte: drain spans,
final times, turn waits, every journey latency and the stencil app's
output.  Any drift means the refactor changed observable behaviour.
"""

from __future__ import annotations

import pathlib

import pytest

from tests.fixtures.regen_grid_golden import build_outputs

GOLDEN = (pathlib.Path(__file__).resolve().parent.parent
          / "fixtures" / "grid_golden")

FILENAMES = ("journeys.txt", "stencil.json")


@pytest.fixture(scope="module")
def outputs() -> dict[str, str]:
    return build_outputs()


@pytest.mark.parametrize("filename", FILENAMES)
def test_grid_output_is_bit_identical(outputs, filename):
    expected = (GOLDEN / filename).read_text(encoding="utf-8")
    assert outputs[filename] == expected, (
        f"{filename} drifted from the pre-refactor golden"
    )
