"""Slow reference implementations the vectorised package code is tested against.

``poisson_registers_oracle`` ingests a Poisson-mode batch one cell at a time
with float CDF tables, for comparison with the blocked integer-threshold
ingest of ``hsketch.tower``.  ``aggregate_column`` evaluates one (column,
character) aggregate the slow way, and ``column_aggregates_oracle`` evaluates
every character of every register, both for comparison with
``hsketch.estimator.column_aggregates``.  ``dft_oracle`` and ``idft_oracle``
build one phase column per output, for comparison with ``hsketch.groups.dft``
and ``idft``.  The bucket
helpers model a single fingerprint level, one element at a time, for
comparison with ``hsketch.sampler.classify_many`` and ``SamplerSketch``.
``ideal_levels_oracle`` classifies the levels of an ideal-mode sampler from
one dict of net values per level, updated one element at a time.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from hsketch import prf
from hsketch.estimator import ColumnAggregates, truncation_tail
from hsketch.groups import FunctionTable, GroupDescriptor, SpectrumTable
from hsketch.sampler import SamplerSketch, classify_many, splitter_width
from hsketch.tower import SketchConfig, TowerSketch, _canonical_values, _poisson_cdf


def poisson_registers_oracle(config: SketchConfig, vs, ys) -> np.ndarray:
    """Registers of an empty Poisson-mode sketch after one ``update_batch(vs, ys)``.

    Cell by cell: dense cells invert the float CDF with ``searchsorted``;
    sparse cells test the first threshold, take ``nonzero`` and invert only
    the hits.  Sums stay far inside int64 for the batch sizes the tests use.
    """
    cfg = config
    vs = np.asarray(vs, dtype=np.int64)
    ys = _canonical_values(cfg.group, ys)
    regs = np.zeros((cfg.num_cells, 3) + ys.shape[1:], dtype=np.int64)
    state = prf.stream_state(cfg.seed, prf.DOMAIN_CELL, vs)  # (n,)
    jkeys = prf.tuple_key(
        j=np.arange(1, 4, dtype=np.int64)[:, None],
        k=np.arange(cfg.a, cfg.b, dtype=np.int64)[None, :],
    )  # (3, nk)
    for i, k in enumerate(range(cfg.a, cfg.b)):
        cdf = _poisson_cdf(cfg.m, k)
        zero_thr = np.uint64(min(1 << 53, math.ceil(cdf[0] * 2.0**53)))
        u = prf.u53(prf.draw(state[None, :], jkeys[:, i][:, None]))  # (3, n)
        if cdf[0] < 0.5:
            uf = u.astype(np.float64) * 2.0**-53
            counts = np.searchsorted(cdf, uf, side="right")
            regs[i] += counts.astype(np.int64) @ ys
        else:
            jj, vv = np.nonzero(u >= zero_thr)
            if jj.size == 0:
                continue
            uf = u[jj, vv].astype(np.float64) * 2.0**-53
            cnt = np.searchsorted(cdf, uf, side="right").astype(np.int64)
            np.add.at(regs[i], jj, cnt.reshape((-1,) + (1,) * (ys.ndim - 1)) * ys[vv])
    if cfg.group is not None:
        regs %= np.array(cfg.group.orders, dtype=np.int64)
    return regs


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


def column_aggregates_oracle(sketch: TowerSketch, literal: bool = False) -> ColumnAggregates:
    """``column_aggregates`` with one character evaluation per (register, character)."""
    group = sketch.group
    cfg = sketch.config
    m, a, b = cfg.m, cfg.a, cfg.b
    L = group.char_modulus
    # Q[t, gi] = gamma_t * (L / p_t) for every character gi
    Q = (group.residue_matrix * group.phase_factors).T  # (d, n_gamma)
    phases = np.tensordot(sketch.registers, Q, axes=(2, 0)) % L  # (nk, 3, n_gamma)
    chars = group.roots[phases]
    weights = np.exp(np.arange(a, b) / (3.0 * m))
    agg = np.tensordot(weights, chars - 1.0, axes=(0, 0)) - truncation_tail(m, a)
    if not literal:
        agg[:, 0] = 0.0  # trivial character: the infinite-tower aggregate is 0
    return ColumnAggregates(group, cfg, agg, literal)


def _phase_matrix_column(g: GroupDescriptor, gamma_res: np.ndarray) -> np.ndarray:
    """Phase indices of chi(x, gamma) for every x, vectorized over x."""
    q = (gamma_res * g.phase_factors) % g.char_modulus
    return (g.residue_matrix @ q) % g.char_modulus


def dft_oracle(g: GroupDescriptor, f: FunctionTable) -> SpectrumTable:
    """Forward transform with one phase column per character."""
    res = g.residue_matrix
    out = np.empty(g.total_size, dtype=np.complex128)
    roots_conj = g.roots.conj()
    for gi in range(g.total_size):
        phases = _phase_matrix_column(g, res[gi])
        out[gi] = f.values @ roots_conj[phases]
    return SpectrumTable(g, out)


def idft_oracle(g: GroupDescriptor, s: SpectrumTable) -> FunctionTable:
    """Inverse transform with one phase column per element."""
    res = g.residue_matrix
    out = np.empty(g.total_size, dtype=np.complex128)
    for xi in range(g.total_size):
        phases = _phase_matrix_column(g, res[xi])
        out[xi] = s.values @ g.roots[phases]
    return FunctionTable(g, out / g.total_size)


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


def ideal_levels_oracle(group: GroupDescriptor, m_prime: int, seed: int, batches):
    """(codes, values) of ``SamplerSketch(group, m_prime, seed, mode="ideal")`` after ``batches``.

    ``batches`` is a list of (vs, ys) pairs; levels come from the sampler's
    own level hash, and codes are as in ``classify_many``.
    """
    probe = SamplerSketch(group, m_prime, seed)
    num_levels = probe.num_levels
    tally: list[dict[int, tuple[int, ...]]] = [{} for _ in range(num_levels)]
    for vs, ys in batches:
        vs = np.asarray(vs, dtype=np.int64)
        yr = _canonical_values(group, ys)
        for v, lv, y in zip(vs.tolist(), probe._levels(vs).tolist(), yr.tolist()):
            cur = tally[lv].get(v, (0,) * group.degree)
            tally[lv][v] = tuple((a + b) % p for a, b, p in zip(cur, y, group.orders))
    codes = np.full(num_levels, 2, dtype=np.int64)
    values = np.zeros((num_levels, group.degree), dtype=np.int64)
    for lv, level in enumerate(tally):
        live = [y for y in level.values() if any(y)]
        if not live:
            codes[lv] = 0
        elif len(live) == 1:
            codes[lv] = 1
            values[lv] = live[0]
    return codes, values
