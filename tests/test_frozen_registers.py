"""Byte-level regression for Poisson-mode registers.

The digests were recorded from the per-cell ingest loop, before the blocked
evaluation replaced it; any change to the ingest path must reproduce the same
register bytes.
"""

import hashlib

import numpy as np
import pytest

from hsketch.groups import make_group
from hsketch.tower import SketchConfig, default_window, sketch_new

FROZEN = {
    "integer": "231f2e43817af8487c80d21024c0f2949788c58137d2a2b9e55e04ed340b065d",
    "Z7": "2ec08ff583954f05953afb7444b9ec57684bdff68bac867b6a8ce989702f5614",
    "Z7xZ7": "3070a349808d7bd61931a095273f05de3a845c16148f7753e32bed85896b004a",
}

GROUPS = {"integer": None, "Z7": make_group([7]), "Z7xZ7": make_group([7, 7])}


def _batch(n: int = 500):
    i = np.arange(n, dtype=np.int64)
    vs = (i * 7919 + 13) % (1 << 20)
    ys = (i * 37) % 201 - 100
    return vs, ys


def _registers(name: str) -> np.ndarray:
    group = GROUPS[name]
    a, b = default_window(64)
    sk = sketch_new(SketchConfig(group, 64, a, b, 2024, "poisson"))
    vs, ys = _batch()
    if group is not None and group.degree == 2:
        ys = np.stack([ys, 3 * ys + 1], axis=1)
    sk.update_batch(vs, ys)
    return sk.registers


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_poisson_registers_frozen(name):
    regs = _registers(name)
    assert hashlib.sha256(regs.astype("<i8").tobytes()).hexdigest() == FROZEN[name]
