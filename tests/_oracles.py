"""Slow reference implementations the vectorised package code is tested against.

``poisson_registers_oracle`` ingests a Poisson-mode batch one cell at a time
with float CDF tables, for comparison with the blocked integer-threshold
ingest of ``hsketch.tower``.  ``aggregate_column`` evaluates one (column,
character) aggregate the slow way, and ``column_aggregates_oracle`` evaluates
every character of every register, both for comparison with
``hsketch.estimator.column_aggregates``.  ``dft_oracle`` and ``idft_oracle``
sum the characters outright, for comparison with ``hsketch.groups.dft`` and
``idft``; ``oracle_close`` is the tolerance of those comparisons, since the
package sums by FFT.  ``variance_factor_oracle`` is ``variance_factor`` as
first written, with all six (|G|, |G|) pair tables at once, for comparison
with its convolution and its sum over distinct values of R-hat.  The bucket
helpers model a single fingerprint level, one element at a time, for
comparison with ``hsketch.sampler.classify_many`` and ``SamplerSketch``.
``ideal_levels_oracle`` classifies the levels of an ideal-mode sampler from
one dict of net values per level, updated one element at a time.

``binomial_levels_float`` and ``sampler_levels_float`` are the binomial and
sampler level draws as first written, with each word's top 53 bits as a
double in [0, 1) searched in a float grid, for comparison with the integer
threshold search in ``hsketch.tower`` and ``hsketch.sampler``.

``cell_count`` and ``binomial_assign`` draw one element's Poisson count or
binomial level for one cell or column, for comparison with what
``update_batch`` writes and to pin the PRF construction.  ``char_eval``
evaluates one character value with exact rational phases, and the
aggregate and transform oracles evaluate chi(x, gamma) = exp(2 pi i
sum_t x_t gamma_t / p_t) from residues alone, independently of the FFT
behind ``dft`` and ``column_aggregates``; their weight grids, like
``sampler_levels_float``'s, come from libm as the package's do.  ``add``,
``neg`` and ``scalar_mul`` are the group arithmetic the character identities
are checked against.

``memo_bytes`` recounts what ``hsketch.groups._MEMO`` charges, its entries'
snapshot and result bytes, for comparison with the memo's byte budget.

``gen_stream_oracle`` is the workload generator as it was when its shuffle
used a stable ``argsort``, for comparison with ``hsketch.workloads.gen_stream``,
which sorts the same (pairwise distinct) keys packed with their indices and
repairs ties in their top bits.  ``unmix64``
inverts ``hsketch.prf.mix64``: it is the witness that the finalizer is a
bijection, which is why those keys are distinct.

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
from fractions import Fraction
from typing import Callable

import numpy as np

from hsketch import prf
from hsketch.errors import DomainError, InvalidConfigError
from hsketch.estimator import ColumnAggregates, RHatTable, truncation_tail
from hsketch.groups import FunctionTable, GroupDescriptor, GroupElement, SpectrumTable
from hsketch.sampler import SamplerSketch, classify_many, splitter_width
from hsketch.special import gamma_fn
from hsketch.tower import (
    SketchConfig,
    TowerSketch,
    _binomial_levels_batch,
    _level_cdf,
    _poisson_cdf,
    _reduce_rows,
    _u53_thresholds,
    _value_rows,
)
from hsketch.workloads import TruthTable, WorkloadSpec


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
    ys = _reduce_rows(cfg.group, _value_rows(cfg.group, ys))
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


def _uniform53(words: np.ndarray) -> np.ndarray:
    return prf.u53(words).astype(np.float64) * 2.0**-53


def binomial_levels_float(config: SketchConfig, words: np.ndarray) -> np.ndarray:
    """Level offsets in [0, num_cells] that ``words`` give in the binomial level draw."""
    return np.searchsorted(_level_cdf(config.m, config.a, config.b), _uniform53(words), "right")


def sampler_levels_float(sampler: SamplerSketch, words: np.ndarray) -> np.ndarray:
    """Levels that ``words`` give in the sampler's level draw."""
    L = sampler.num_levels
    asc = np.array([math.exp(-k / sampler.m_prime) for k in range(L, 0, -1)])
    return np.minimum(L - np.searchsorted(asc, _uniform53(words), "right"), L - 1)


def add(g: GroupDescriptor, x: GroupElement, y: GroupElement) -> GroupElement:
    x, y = g.element(x), g.element(y)
    return tuple((a + b) % p for a, b, p in zip(x, y, g.orders))


def neg(g: GroupDescriptor, x: GroupElement) -> GroupElement:
    return tuple((-a) % p for a, p in zip(g.element(x), g.orders))


def scalar_mul(g: GroupDescriptor, n: int, x: GroupElement) -> GroupElement:
    return tuple((n % p) * a % p for a, p in zip(g.element(x), g.orders))


def char_eval(g: GroupDescriptor, x: GroupElement, gamma: GroupElement) -> complex:
    """Character value chi(x, gamma) = exp(2 pi i sum_t x_t gamma_t / p_t), a unit-modulus number."""
    x, gamma = g.element(x), g.element(gamma)
    turns = sum(Fraction(a * c % p, p) for a, c, p in zip(x, gamma, g.orders)) % 1
    return cmath.exp(2j * math.pi * float(turns))


def _elements(g: GroupDescriptor) -> np.ndarray:
    """(|G|, d) residue rows of every element, in enumeration order."""
    return np.array(list(g.elements()), dtype=np.int64).reshape(g.total_size, g.degree)


def _chi(g: GroupDescriptor, xs: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """chi(x, gamma) over residue arrays ``xs`` and ``gammas`` (factors on the last axis), broadcast."""
    turns = sum(xs[..., t] * gammas[..., t] % p / p for t, p in enumerate(g.orders))
    return np.exp(2j * np.pi * (turns % 1.0))


def _aggregate_weights(m: int, a: int, b: int) -> np.ndarray:
    return np.array([math.exp(k / (3.0 * m)) for k in range(a, b)])


def aggregate_column(
    registers: np.ndarray,
    group: GroupDescriptor,
    gamma,
    config: SketchConfig,
    literal: bool = False,
) -> complex:
    """Aggregate of one column's registers against one character, one register at a time.

    ``registers`` is the (num_cells, d) residue array of a single column.
    """
    gamma = group.element(gamma)
    if all(g == 0 for g in gamma) and not literal:
        return 0.0 + 0.0j
    chars = np.array([char_eval(group, tuple(x), gamma) for x in np.asarray(registers)])
    m, a, b = config.m, config.a, config.b
    return complex((chars - 1.0) @ _aggregate_weights(m, a, b) - truncation_tail(m, a))


def column_aggregates_oracle(sketch: TowerSketch, literal: bool = False) -> ColumnAggregates:
    """``column_aggregates`` with one character evaluation per (register, character)."""
    group = sketch.group
    cfg = sketch.config
    m, a, b = cfg.m, cfg.a, cfg.b
    chars = _chi(group, sketch.registers[:, :, None, :], _elements(group))  # (nk, 3, n_gamma)
    agg = np.tensordot(_aggregate_weights(m, a, b), chars - 1.0, axes=(0, 0)) - truncation_tail(m, a)
    if not literal:
        agg[:, 0] = 0.0  # trivial character: the infinite-tower aggregate is 0
    return ColumnAggregates(group, cfg, agg, literal)


def _character_sums(g: GroupDescriptor, values: np.ndarray, conj: bool) -> np.ndarray:
    """sum_x values[x] chi(x, gamma) (conjugated if ``conj``) for every gamma, in blocks of gammas."""
    xs = _elements(g)
    out = []
    for gammas in np.array_split(xs, -(-g.total_size**2 // (1 << 18))):
        chars = _chi(g, xs[None, :, :], gammas[:, None, :])  # (block, |G|)
        out.append((chars.conj() if conj else chars) @ values)
    return np.concatenate(out)


def dft_oracle(g: GroupDescriptor, f: FunctionTable) -> SpectrumTable:
    """Forward transform as a plain character sum per output."""
    return SpectrumTable(g, _character_sums(g, f.values, conj=True))


def idft_oracle(g: GroupDescriptor, s: SpectrumTable) -> FunctionTable:
    """Inverse transform as a plain character sum per element."""
    return FunctionTable(g, _character_sums(g, s.values, conj=False) / g.total_size)


def oracle_close(got: np.ndarray, want: np.ndarray) -> bool:
    """max |got - want| <= 1e-12 max |want|: an FFT's rounding against a per-character sum."""
    scale = np.max(np.abs(want), initial=0.0)
    return got.shape == want.shape and np.max(np.abs(got - want), initial=0.0) <= 1e-12 * scale


def variance_factor_oracle(s: SpectrumTable, rhat: RHatTable) -> complex:
    """The variance double sum over every (gamma, gamma') pair at once: O(|G|^2) memory."""
    group = s.group
    n = group.total_size
    res = _elements(group)
    orders = np.array(group.orders, dtype=np.int64)
    weights = np.array(group.index_weights, dtype=np.int64)
    neg_idx = (np.mod(-res, orders) @ weights).astype(np.int64)
    # index of (-gamma + gamma') for every pair
    pair_idx = np.mod(res[neg_idx][:, None, :] + res[None, :, :], orders) @ weights
    mu = rhat.values
    two_thirds = 2.0 / 3.0
    t_cross = np.power(1.0 - mu[pair_idx], two_thirds)
    t_split = np.power(2.0 - mu[neg_idx][:, None] - mu[None, :], two_thirds)
    b_row = np.power(1.0 - mu[neg_idx], two_thirds)[:, None]
    c_col = np.power(1.0 - mu, two_thirds)[None, :]
    fmat = s.values[:, None] * s.values.conj()[None, :]
    total = (fmat * (t_cross - t_split) * b_row * c_col).sum()
    return complex(-total / (n * n))


def _unxorshift(z: np.ndarray, shift: int) -> np.ndarray:
    """Inverse of z ^ (z >> shift): each pass recovers ``shift`` more high bits."""
    out = z.copy()
    for _ in range(64 // shift):
        out = z ^ (out >> np.uint64(shift))
    return out


def unmix64(z: np.ndarray) -> np.ndarray:
    """Inverse of ``prf.mix64`` on a uint64 array: the finalizer's steps undone in reverse."""
    m1_inv = np.uint64(pow(int(prf._M1), -1, 1 << 64))
    m2_inv = np.uint64(pow(int(prf._M2), -1, 1 << 64))
    z = _unxorshift(np.asarray(z, dtype=np.uint64), 31)
    z = _unxorshift(z * m2_inv, 27)
    return _unxorshift(z * m1_inv, 30)


def _prf_permutation(seed: int, n: int, salt: int) -> np.ndarray:
    """The shuffle as first written: a stable sort of the PRF keys of 0..n-1."""
    keys = prf.draw(
        prf.stream_state(seed, prf.DOMAIN_SHUFFLE, np.arange(n, dtype=np.int64)),
        prf.tuple_key(j=salt),
    )
    return np.argsort(keys, kind="stable")


def gen_stream_oracle(spec: WorkloadSpec) -> tuple[np.ndarray, np.ndarray, TruthTable]:
    """Deterministic update sequence (ids, values) realizing the workload.

    Element ids [0, support) carry the multiset of values in a PRF-shuffled
    assignment; ids [support, support + cancel_pairs) each get one update and
    its inverse.  The emitted order is a PRF shuffle of all updates.
    """
    support = spec.support_size
    values = np.empty(support, dtype=np.int64)
    pos = 0
    for value in sorted(spec.value_counts):
        count = spec.value_counts[value]
        values[pos : pos + count] = value
        pos += count
    values = values[_prf_permutation(spec.shuffle_seed, support, salt=1)]

    vs = [np.arange(support, dtype=np.int64)]
    ys = [values]
    if spec.cancel_pairs:
        ids = support + np.arange(spec.cancel_pairs, dtype=np.int64)
        mags = 1 + (
            prf.draw(
                prf.stream_state(spec.shuffle_seed, prf.DOMAIN_VALUE, ids),
                prf.tuple_key(j=2),
            )
            % np.uint64(7)
        ).astype(np.int64)
        vs.extend([ids, ids])
        ys.extend([mags, -mags])
    all_vs = np.concatenate(vs)
    all_ys = np.concatenate(ys)
    order = _prf_permutation(spec.shuffle_seed, len(all_vs), salt=3)
    truth = TruthTable(dict(spec.value_counts), spec.universe)
    return all_vs[order], all_ys[order], truth


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
    yr = _reduce_rows(bucket.group, _value_rows(bucket.group, [y]))[0]
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
        yr = _reduce_rows(group, _value_rows(group, ys))
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
    return (a_pow - b_pow) * gamma_fn(-c)


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


def memo_bytes(memo) -> int:
    """The bytes of every entry's snapshot and result."""
    return sum(entry[-2].nbytes + entry[-1].nbytes for entry in memo)
