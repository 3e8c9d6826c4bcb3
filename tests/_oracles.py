"""Scalar reference implementations the vectorised package code is tested against.

``aggregate_column`` evaluates one (column, character) aggregate the slow way,
for comparison with ``hsketch.estimator.column_aggregates``.  The bucket
helpers model a single fingerprint level, one element at a time, for
comparison with ``hsketch.sampler.classify_many`` and ``SamplerSketch``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from hsketch import prf
from hsketch.estimator import truncation_tail
from hsketch.groups import GroupDescriptor
from hsketch.sampler import classify_many, splitter_width
from hsketch.tower import SketchConfig, _canonical_values


def aggregate_column(
    registers: np.ndarray,
    group: GroupDescriptor,
    gamma,
    config: SketchConfig,
    literal: bool = False,
) -> complex:
    """Aggregate of one column's registers against one character.

    ``registers`` is the (num_cells, d) residue array of a single column.
    """
    gamma = group.element(gamma)
    if all(g == 0 for g in gamma) and not literal:
        return 0.0 + 0.0j
    q = np.array(
        [g * f for g, f in zip(gamma, group.phase_factors)], dtype=np.int64
    )
    phases = (np.asarray(registers, dtype=np.int64) @ q) % group.char_modulus
    chars = group.roots[phases]
    m, a, b = config.m, config.a, config.b
    weights = np.exp(np.arange(a, b) / (3.0 * m))
    return complex((chars - 1.0) @ weights - truncation_tail(m, a))


class BucketState(enum.Enum):
    EMPTY = "empty"
    SINGLETON = "singleton"
    NOT_SINGLETON = "not-singleton"


@dataclass
class FingerprintBucket:
    """One level's splitter table: r columns, each value lands in one slot."""

    group: GroupDescriptor
    r: int
    slots: np.ndarray = field(default=None)  # (r, width, d)

    def __post_init__(self):
        width = splitter_width(self.group)
        if self.slots is None:
            self.slots = np.zeros((self.r, width, self.group.degree), dtype=np.int64)


def splitter_update(bucket: FingerprintBucket, v: int, y, seed: int) -> None:
    """Add y into one PRF-chosen slot per column for element v."""
    yr = _canonical_values(bucket.group, [y])[0]
    width = splitter_width(bucket.group)
    for c in range(bucket.r):
        u = prf.draw(prf.stream_state(seed, prf.DOMAIN_SLOT, v), prf.tuple_key(j=c))
        slot = int(u % np.uint64(width))
        bucket.slots[c, slot] = (bucket.slots[c, slot] + yr) % np.array(
            bucket.group.orders, dtype=np.int64
        )


def classify_bucket(bucket: FingerprintBucket) -> tuple[BucketState, tuple[int, ...] | None]:
    codes, values = classify_many(bucket.slots[None, :, :, :])
    state = (BucketState.EMPTY, BucketState.SINGLETON, BucketState.NOT_SINGLETON)[int(codes[0])]
    value = tuple(int(x) for x in values[0]) if state is BucketState.SINGLETON else None
    return state, value
