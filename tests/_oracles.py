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

``cell_count`` and ``binomial_assign`` draw one element's Poisson count or
binomial level for one cell or column, for comparison with what
``update_batch`` writes and to pin the PRF construction.  ``char_eval``
evaluates one character value with scalar arithmetic, independently of the
phase rows behind ``dft`` and ``column_aggregates``.

``eta1_closed`` and ``eta1_quadrature`` give the full-line integral of the
eta kernel (e^{-a e^{-x}} - e^{-b e^{-x}}) e^{c x} in closed form (through
``hsketch.special.gamma_fn``) and by adaptive quadrature; the two agree only
if the Gamma constants the estimators use are right.  ``riemann_gap_check``
tests the sum-versus-integral bound behind the towers' discretization.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from hsketch import prf
from hsketch.errors import DomainError, InvalidConfigError
from hsketch.estimator import ColumnAggregates, truncation_tail
from hsketch.groups import FunctionTable, GroupDescriptor, GroupElement, SpectrumTable
from hsketch.sampler import SamplerSketch, classify_many, splitter_width
from hsketch.special import gamma_cached
from hsketch.tower import (
    SketchConfig,
    TowerSketch,
    _binomial_levels_batch,
    _canonical_values,
    _poisson_cdf,
    _u53_thresholds,
)


class QuadratureError(Exception):
    """Adaptive quadrature failed to converge to the requested tolerance."""


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


def cell_count(seed: int, v: int, j: int, k: int, m: int) -> int:
    """Deterministic pseudo-Poisson(e^{-k/m}) count for element v, column j, cell k."""
    counts = _poisson_counts_batch(
        seed, np.array([v], dtype=np.int64), j, k, m
    )
    return int(counts[0])


def _poisson_counts_batch(seed: int, vs: np.ndarray, j: int, k: int, m: int) -> np.ndarray:
    state = prf.stream_state(seed, prf.DOMAIN_CELL, vs)
    u = prf.u53(prf.draw(state, prf.tuple_key(j=j, k=k)))
    return np.searchsorted(_u53_thresholds(_poisson_cdf(m, k)), u, side="right")


def binomial_assign(seed: int, v: int, j: int, config: SketchConfig) -> int | None:
    """Level in [a, b) for one column of the binomial tower, or None for no-op."""
    if config.mode != "binomial":
        raise InvalidConfigError("level assignment is a binomial-mode operation")
    levels = _binomial_levels_batch(seed, np.array([v], dtype=np.int64), j, config)
    lv = int(levels[0])
    return None if lv == config.num_cells else config.a + lv


def char_eval(g: GroupDescriptor, x: GroupElement, gamma: GroupElement) -> complex:
    """Character value chi(x, gamma), a unit-modulus complex number."""
    x, gamma = g.element(x), g.element(gamma)
    L = g.char_modulus
    r = sum((a * c % p) * f for a, c, p, f in zip(x, gamma, g.orders, g.phase_factors)) % L
    return complex(g.roots[r])


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


@dataclass(frozen=True)
class EtaParams:
    """Parameters of the kernel (e^{-a e^{-x}} - e^{-b e^{-x}}) e^{c x}."""

    a: complex
    b: complex
    c: float

    def __post_init__(self):
        if self.a.real < 0.0 or self.b.real < 0.0:
            raise DomainError("eta kernel needs Re(a) >= 0 and Re(b) >= 0")
        if not 0.0 < self.c < 1.0:
            raise DomainError(f"eta kernel exponent c={self.c} outside (0, 1)")


def _cexpm1(z: complex) -> complex:
    """exp(z) - 1 without cancellation for small |z|."""
    if abs(z) < 1e-4:
        return z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0)))
    return cmath.exp(z) - 1.0


def eta1(x: float, params: EtaParams) -> complex:
    """Kernel value, evaluated as -e^{-u e^{-x}} expm1(-(v-u) e^{-x}) e^{cx}
    with u the exponent of smaller real part, so the right tail (where the
    two exponentials agree to machine precision) stays accurate."""
    a, b, c = params.a, params.b, params.c
    e = math.exp(-x)
    if a.real <= b.real:
        u, v, sign = a, b, 1.0
    else:
        u, v, sign = b, a, -1.0
    return -sign * cmath.exp(-u * e) * _cexpm1(-(v - u) * e) * math.exp(c * x)


def eta1_prime(x: float, params: EtaParams) -> complex:
    """d/dx of the kernel; used by the sum-vs-integral gap check."""
    a, b, c = params.a, params.b, params.c
    e = math.exp(-x)
    eta2_a = a * e * cmath.exp(-a * e)
    eta2_b = b * e * cmath.exp(-b * e)
    return c * eta1(x, params) + (eta2_a - eta2_b) * math.exp(c * x)


def eta1_closed(params: EtaParams) -> complex:
    """Closed form of the full-line integral: (a^c - b^c) * Gamma(-c).

    Principal-branch complex powers; the Re >= 0 precondition keeps the
    branch cut untouched.
    """
    a, b, c = params.a, params.b, params.c
    a_pow = a**c if a != 0 else 0.0 + 0.0j
    b_pow = b**c if b != 0 else 0.0 + 0.0j
    return (a_pow - b_pow) * gamma_cached(-c)


def _adaptive_simpson(
    fn: Callable[[float], complex],
    lo: float,
    hi: float,
    tol: float,
    max_depth: int = 30,
) -> complex:
    """Panelized adaptive Simpson; panels of width ~1 so that localized
    features cannot slip between the initial probe points."""

    def recurse(a, b, fa, fm, fb, acc, eps, depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = fn(lm), fn(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        if abs(left + right - acc) <= 15.0 * eps:
            return left + right + (left + right - acc) / 15.0
        if depth <= 0:
            raise QuadratureError("adaptive quadrature failed to converge")
        return recurse(a, m, fa, flm, fm, left, eps / 2.0, depth - 1) + recurse(
            m, b, fm, frm, fb, right, eps / 2.0, depth - 1
        )

    panels = max(8, min(4096, int(math.ceil(hi - lo))))
    edges = [lo + (hi - lo) * i / panels for i in range(panels + 1)]
    total = 0.0 + 0.0j
    eps = tol / panels
    for a, b in zip(edges[:-1], edges[1:]):
        fa, fm, fb = fn(a), fn(0.5 * (a + b)), fn(b)
        whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
        total += recurse(a, b, fa, fm, fb, whole, eps, max_depth)
    return total


def eta1_quadrature(params: EtaParams, tolerance: float = 1e-9) -> complex:
    """Numeric full-line integral of the kernel, independent of the closed form.

    The integration window is chosen so the discarded tails are provably
    below tolerance/10: the kernel decays like |b - a| e^{-(1-c)x} on the
    right and like 2 e^{c x} on the left.
    """
    a, b, c = params.a, params.b, params.c
    if a == b:
        return 0.0 + 0.0j
    diff = abs(b - a)
    # right tail: |eta1| <= |b-a| e^{-(1-c)x}; left tail: |eta1| <= 2 e^{cx}
    hi = math.log(10.0 * (diff + 1.0) / tolerance) / (1.0 - c) + 1.0
    lo = math.log(tolerance / 20.0) / c - 1.0
    return _adaptive_simpson(lambda x: eta1(x, params), lo, hi, tolerance / 4.0)


@dataclass(frozen=True)
class GapCheckResult:
    integral_gap: float
    derivative_bound: float

    @property
    def holds(self) -> bool:
        return self.integral_gap <= self.derivative_bound + 1e-12


def riemann_gap_check(
    h: Callable[[float], complex],
    h_prime: Callable[[float], complex],
    m: int,
    lo: float = -60.0,
    hi: float = 60.0,
    tol: float = 1e-10,
) -> GapCheckResult:
    """Verify |integral(h) - (1/m) sum_k h(k/m)| <= (1/m) integral(|h'|).

    Both sides are evaluated numerically over [lo, hi], which must contain
    essentially all of the mass of h and h'.
    """
    integral = _adaptive_simpson(h, lo, hi, tol)
    ks = range(math.ceil(lo * m), math.floor(hi * m) + 1)
    riemann = sum(h(k / m) for k in ks) / m
    deriv_mass = _adaptive_simpson(lambda x: abs(h_prime(x)), lo, hi, tol)
    return GapCheckResult(abs(integral - riemann), float(deriv_mass.real) / m)
