"""Byte-level regression for register arrays: towers of both modes and samplers.

The Poisson digests were recorded from the per-cell ingest loop, before the
blocked evaluation replaced it; the binomial and sampler digests from the
per-column and per-level scatters, before one scatter-add replaced them.  Any
change to an ingest path must reproduce the same bytes.
"""

import hashlib

import numpy as np
import pytest

from hsketch.groups import make_group
from hsketch.sampler import SamplerSketch
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


# -- binomial towers and samplers ---------------------------------------------

FROZEN_BINOMIAL = {
    "integer": "472027278faf73400ab370d5b0114e8d90ee291df0e239c0dbc1c6c6a144040a",
    "Z7": "e15afed476fbfbb8d355238f3e25771e3403fb4d81c7dfe6b496786391016b2e",
    "Z2^8": "cc6571f1f59c43db6aff6798d375056503ce20c51908c819d38937461baf3d6e",
}
FROZEN_SLOTS = {
    "Z7": "88d187ae1bdae4d4dacc08f47ceab09447a10e28935d254047365f5dc2c4f484",
    "Z2^3": "8bdf0a0809d5b08c3b3a983f808535a0667500c34dc0600bd2790e4c9bc3813d",
}
FROZEN_CLASSIFY = {
    "Z7-fingerprint": "51643437c658f7f7e893838ed8406eb2d2ed023d38afd9be4f6bb7d7cc3f0f86",
    "Z7-ideal": "750f19115331c54fea53ef86e9296735b3eb65e182c60459e11af0885083ff23",
    "Z2^3-fingerprint": "8d6aa22dbbfebb63bb197ac03a056a0c8261c1bb26acc25410c51e5d289979f3",
    "Z2^3-ideal": "f9061da5dabf201e28453587770c021d002bb8be5cf8f9947f9d440d6b11fd6d",
}

BINOMIAL_GROUPS = {"integer": None, "Z7": make_group([7]), "Z2^8": make_group([2] * 8)}
SAMPLER_GROUPS = {"Z7": make_group([7]), "Z2^3": make_group([2] * 3)}


def _turnstile(n: int, degree: int, seed: int):
    """n updates, the last quarter inverting earlier ones; values (n,) or (n, degree)."""
    rng = np.random.default_rng(seed)
    k = n - n // 4
    vs = rng.integers(0, 1 << 30, k)
    ys = rng.integers(-100, 101, (k, degree) if degree else k)
    back = rng.choice(k, n // 4, replace=False)
    return np.concatenate([vs, vs[back]]), np.concatenate([ys, -ys[back]])


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr, dtype="<i8").tobytes())
    return h.hexdigest()


def _binomial_registers(name: str) -> np.ndarray:
    group = BINOMIAL_GROUPS[name]
    m = 16
    sk = sketch_new(SketchConfig(group, m, 3 * m, 25 * m, 77, "binomial"))
    # one batch spanning two ingest chunks
    vs, ys = _turnstile(30_000, 0 if group is None else group.degree, 5)
    sk.update_batch(vs, ys)
    return sk.registers


def _sampler_state(name: str, mode: str):
    group = SAMPLER_GROUPS[name]
    sampler = SamplerSketch(group, 16, 91, r=3, mode=mode)
    vs, ys = _turnstile(800, group.degree, 6)
    sampler.update_batch(vs[:500], ys[:500])
    # the second batch cancels part of the first and repeats ids within itself
    sampler.update_batch(np.concatenate([vs[500:], vs[:100]]), np.concatenate([ys[500:], -ys[:100]]))
    return sampler


@pytest.mark.parametrize("name", sorted(BINOMIAL_GROUPS))
def test_binomial_registers_frozen(name):
    assert _digest(_binomial_registers(name)) == FROZEN_BINOMIAL[name]


@pytest.mark.parametrize("mode", ["fingerprint", "ideal"])
@pytest.mark.parametrize("name", sorted(SAMPLER_GROUPS))
def test_sampler_state_frozen(name, mode):
    sampler = _sampler_state(name, mode)
    codes, values = sampler.classify_levels()
    assert _digest(codes, values) == FROZEN_CLASSIFY[f"{name}-{mode}"]
    if mode == "fingerprint":
        assert _digest(sampler.slots) == FROZEN_SLOTS[name]
