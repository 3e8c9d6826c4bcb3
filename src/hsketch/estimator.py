"""Per-character aggregation and the frequency-moment estimators.

The pipeline: each sketch column j and character gamma yields the aggregate

    agg(j, gamma) = sum_{k=a}^{b-1} (chi(X_kj, gamma) - 1) e^{k/(3m)}  -  tau2,

where tau2 = e^{(a-1)/(3m)} / (1 - e^{-1/(3m)}) stands in for the discarded
low cells.  The product of the three column aggregates, scaled by
1/(m^3 |Gamma(-1/3)|^3), estimates the gamma-component of the moment, and a
transform-weighted average over the dual group assembles the moment itself:

    estimate(f) = (1/|dual|) * sum_gamma hat(f)(gamma) * prod_j agg(j, gamma)
                  / (m^3 |Gamma(-1/3)|^3).

Every estimate is one :func:`estimate_f` call with a spectrum: residue j mod
p is :func:`modulo_spectrum`, and the support of one sketch, or of the union
of two over their product group, is the constant -1 (the transform of
-1{x = 0}).  An integer sketch is read mod the order of the spectrum's group,
which must be cyclic; a sketch over another group raises before anything is
aggregated.

At the trivial character the infinite-tower aggregate is identically zero,
while the truncated formula above yields -tau2, an O(1) absolute artifact
when a = 0.  The default zeroes the trivial character; ``literal=True``
keeps the verbatim formula (useful for studying truncation error, and it is
the variant whose subgroup cancellations are exact).

Aggregates depend only on the sketch, so one aggregation serves any number of
spectra.  Per column j, the histogram H_j(x) = sum_k e^{k/(3m)} [X_kj = x]
over x != 0 makes the aggregate a character sum,

    agg(j, gamma) = sum_x H_j(x) chi(x, gamma) - sum_x H_j(x) - tau2,

that is one unnormalized inverse FFT over the group.  The weights come from
libm (``math.exp``), cached per (m, a, b), so estimates do not depend on
which SIMD loop numpy dispatches ``np.exp`` to.
The memo of the transforms, ``groups._MEMO``, keeps the column products too,
each under its config (an integer sketch's over Z_p), ``literal`` flag and a
snapshot of the registers it read (int64 for an integer sketch, so a hit
reduces nothing).  The product over the three columns is computed once on the
miss and stored read-only; entries leave by least-recently-used eviction
within the memo's byte budget or when an experiment trial drops its towers'
entries, and :func:`estimate_f` reads an entry in place.  :func:`column_aggregates`
neither reads nor fills the memo: it computes fresh aggregates on each call.

A warm query builds no config and no spectrum, and copies no register
array: a config over a group comes from ``tower._config_over``, cached per
(config, group), so a union builds only its product's small descriptor and
gets back the cached config; :func:`modulo_spectrum` and
:func:`estimate_support` share one Z_p descriptor per integer order
(``groups._cyclic_group``), whose roots are built once; the spectra of
:func:`modulo_spectrum` and the support are cached per (group, residue) and
per group, read-only, after every input check; and the memo compares the
registers with its snapshot in place.  A warm estimate pays for one compare
of the registers and the weighted sum: a hit copies nothing and recomputes
no product.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import GroupMismatchError, InvalidConfigError, InvalidRHatError, _checked_int
from .groups import _MEMO, FunctionTable, GroupDescriptor, SpectrumTable, _cyclic_group, _read_only, dft
from .special import gamma_fn
from .tower import (
    IntegerTowerSketch, SketchConfig, TowerSketch, _FIELD_RANGES, _config_over, _mod_exact, combine_product,
)


_SCALE = abs(gamma_fn(-1.0 / 3.0)) ** 3  # |Gamma(-1/3)|^3, from the shared Gamma routine


def truncation_tail(m: int, a: int) -> float:
    """tau2 = e^{(a-1)/(3m)} / (1 - e^{-1/(3m)}), the low-cell correction."""
    m = _checked_int("m", m, *_FIELD_RANGES["m"])
    a = _checked_int("a", a, *_FIELD_RANGES["a"])
    return math.exp((a - 1) / (3.0 * m)) / (1.0 - math.exp(-1.0 / (3.0 * m)))


@dataclass(frozen=True)
class EstimateReport:
    """An estimate and its imaginary residual."""

    estimate: float
    imag_residual: float


@dataclass(frozen=True)
class ColumnAggregates:
    """Per-(column, character) aggregates of one quiesced sketch."""

    group: GroupDescriptor
    config: SketchConfig
    values: np.ndarray  # (3, |dual|) complex
    literal: bool


def column_aggregates(sketch: TowerSketch, literal: bool = False) -> ColumnAggregates:
    """All (column, character) aggregates of a group-valued sketch at once, computed on each call."""
    if isinstance(sketch, IntegerTowerSketch):
        raise GroupMismatchError(
            "an integer sketch has no group to aggregate over: query it with estimate_f on a "
            "cyclic spectrum, or reduce it with reduce_values_mod(p) first"
        )
    if not isinstance(sketch, TowerSketch):
        raise TypeError(f"cannot aggregate {type(sketch).__name__}")
    return _column_aggregates(sketch.config, sketch.registers, literal)


def _memoized_product(cfg: SketchConfig, registers: np.ndarray, literal: bool) -> np.ndarray:
    """The memo entry of ``registers`` over ``cfg.group``: the read-only column product of the aggregates.

    (nk, 3) integer registers are read mod the group's order.
    """

    def product(snap: np.ndarray) -> np.ndarray:
        reduced = snap if snap.ndim == 3 else _mod_exact(snap, cfg.group.orders)[:, :, None]
        return _read_only(_column_aggregates(cfg, reduced, literal).values.prod(axis=0))

    return _MEMO.get((cfg, literal), registers, product)


@lru_cache(maxsize=16)
def _weights(m: int, a: int, b: int) -> np.ndarray:
    """e^{k/(3m)} for k in [a, b), from libm."""
    return _read_only(np.array([math.exp(k / (3.0 * m)) for k in range(a, b)]))


def _column_aggregates(cfg: SketchConfig, registers: np.ndarray, literal: bool) -> ColumnAggregates:
    group = cfg.group
    n = group.total_size
    index = registers @ np.array(group.index_weights, dtype=np.int64)  # (nk, 3) element indices
    weights = _weights(cfg.m, cfg.a, cfg.b)
    hist = np.stack([np.bincount(index[:, j], weights, minlength=n) for j in range(3)])
    hist[:, 0] = 0.0  # chi(0, gamma) - 1 = 0
    axes = tuple(range(1, group.degree + 1))
    sums = np.fft.ifftn(hist.reshape((3,) + group.orders), axes=axes, norm="forward").reshape(3, n)
    # sums[:, 0] is sum_x H_j(x), so the trivial character gets exactly -tau2
    agg = sums - sums[:, :1] - truncation_tail(cfg.m, cfg.a)
    if not literal:
        agg[:, 0] = 0.0  # trivial character: the infinite-tower aggregate is 0
    return ColumnAggregates(group, cfg, agg, literal)


def _resolve_aggregates(sketch, group: GroupDescriptor, literal: bool) -> tuple[SketchConfig, np.ndarray]:
    """The config of ``sketch`` over ``group`` and the column product of its aggregates.

    Every check comes before any aggregation.  The product of a sketch is its
    read-only memo entry; that of a ``ColumnAggregates`` is computed here.
    """
    if isinstance(sketch, IntegerTowerSketch):
        if group.degree != 1:
            raise GroupMismatchError(f"an integer sketch is read mod a cyclic order, not {group.orders}")
        cfg = _config_over(sketch.config, group)
        return cfg, _memoized_product(cfg, sketch.registers, literal)
    if not isinstance(sketch, (TowerSketch, ColumnAggregates)):
        raise TypeError(f"cannot aggregate {type(sketch).__name__}")
    if isinstance(sketch, ColumnAggregates) and sketch.literal != literal:
        raise InvalidConfigError(
            f"aggregates were computed with literal={sketch.literal}, the query asks for literal={literal}"
        )
    if sketch.group != group:
        raise GroupMismatchError(f"sketch group {sketch.group.orders} is not the spectrum's {group.orders}")
    if isinstance(sketch, ColumnAggregates):
        return sketch.config, sketch.values.prod(axis=0)
    return sketch.config, _memoized_product(sketch.config, sketch.registers, literal)


def estimate_f(
    sketch: TowerSketch | IntegerTowerSketch | ColumnAggregates,
    s: SpectrumTable,
    *,
    clamp_nonnegative: bool = False,
    literal: bool = False,
) -> EstimateReport:
    """Moment estimate for the function whose transform table is ``s``.

    An integer sketch is read mod the order of ``s``'s group, which must be cyclic.
    """
    if not isinstance(s, SpectrumTable):
        raise GroupMismatchError(f"estimate_f takes a SpectrumTable, got {type(s).__name__}")
    cfg, prod = _resolve_aggregates(sketch, s.group, literal)
    terms = s.values * prod  # in place below: the operations of s.values * prod / scale / |G|
    terms /= cfg.m**3 * _SCALE
    terms /= s.group.total_size
    total = np.add.reduce(terms)
    est = float(total.real)
    if clamp_nonnegative:
        est = max(0.0, est)
    return EstimateReport(estimate=est, imag_residual=abs(float(total.imag)))


def modulo_spectrum(p: int, j: int) -> SpectrumTable:
    """Transform of the indicator of residue j in Z_p: gamma -> e^{-2 pi i j gamma / p}, j in [0, p).

    Built once per (p, j) and shared: its values are read-only.
    """
    if not isinstance(j, numbers.Integral):  # 1.5 would index the roots of unity
        raise InvalidConfigError(f"residue j={j!r} is not an integer")
    group = _cyclic_group(p)
    if not 0 <= j < group.orders[0]:
        raise InvalidConfigError(f"residue {j} outside [0, {group.orders[0]})")
    return _modulo_spectrum(group, int(j))


@lru_cache(maxsize=64)
def _modulo_spectrum(group: GroupDescriptor, j: int) -> SpectrumTable:
    p = group.orders[0]
    return SpectrumTable(group, _read_only(group.roots[(-j * np.arange(p)) % p]))


@lru_cache(maxsize=16)
def _support_spectrum(group: GroupDescriptor) -> SpectrumTable:
    """The constant -1: the transform of -1{x = 0}, whose moment is the support size.

    The support's own function 1{x != 0} = 1 - 1{x = 0} has transform
    |G| 1{gamma = 0} - 1.  A constant added to a function moves only the
    trivial character's entry, which the default aggregates multiply by zero;
    -1 there keeps the ``literal=True`` estimates what they have always been.
    Built once per group and shared: its values are read-only.
    """
    return SpectrumTable(group, _read_only(np.full(group.total_size, -1.0 + 0.0j)))


def estimate_modulo(
    sketch: TowerSketch | IntegerTowerSketch | ColumnAggregates,
    p: int,
    j: int,
    *,
    clamp_nonnegative: bool = False,
    literal: bool = False,
) -> EstimateReport:
    """Estimate of |{v : x(v) = j (mod p)}| for j != 0; for j = 0 the negated
    estimate is the support size mod p (see :func:`estimate_support`)."""
    return estimate_f(
        sketch, modulo_spectrum(p, j), clamp_nonnegative=clamp_nonnegative, literal=literal
    )


def estimate_support(
    sketch: TowerSketch | IntegerTowerSketch | ColumnAggregates,
    p: int,
    *,
    clamp_nonnegative: bool = False,
    literal: bool = False,
) -> EstimateReport:
    """Support size mod p: the negated residue-0 estimate, term for term."""
    return estimate_f(
        sketch, _support_spectrum(_cyclic_group(p)),
        clamp_nonnegative=clamp_nonnegative, literal=literal,
    )


def estimate_union(
    s1: TowerSketch,
    s2: TowerSketch,
    *,
    clamp_nonnegative: bool = False,
    literal: bool = False,
) -> EstimateReport:
    """Size of the union of two supports: the support of the cellwise product sketch."""
    product = combine_product(s1, s2)
    return estimate_f(
        product, _support_spectrum(product.group),
        clamp_nonnegative=clamp_nonnegative, literal=literal,
    )


# -- asymptotic variance prediction ------------------------------------------


@dataclass(frozen=True)
class RHatTable:
    """Transform of the support-value distribution: gamma -> E conj(chi(R, gamma))."""

    group: GroupDescriptor
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != (self.group.total_size,):
            raise InvalidRHatError("table size does not match the dual group")
        if not np.isfinite(vals).all():  # NaN passes both comparisons below
            raise InvalidRHatError("distribution transform values must be finite")
        if np.max(np.abs(vals)) > 1.0 + 1e-9:
            raise InvalidRHatError("distribution transform values must have modulus <= 1")
        if abs(vals[0] - 1.0) > 1e-9:
            raise InvalidRHatError("trivial character must map to 1 (total mass)")
        object.__setattr__(self, "values", vals)


def rhat_from_pmf(group: GroupDescriptor, pmf: dict | FunctionTable) -> RHatTable:
    """Exact distribution transform from a known support-value pmf."""
    if isinstance(pmf, FunctionTable):
        table = pmf
    else:
        vals = np.zeros(group.total_size, dtype=np.complex128)
        for x, prob in pmf.items():
            if not isinstance(x, tuple):
                x = (x,)
            vals[group.index_of(group.element(x))] = prob
        table = FunctionTable(group, vals)
    probs = table.values.real
    if np.any(probs < -1e-12) or abs(probs.sum() - 1.0) > 1e-9:
        raise InvalidRHatError("pmf must be nonnegative and sum to 1")
    return RHatTable(group, dft(group, table).values)


def variance_factor(s: SpectrumTable, rhat: RHatTable) -> complex:
    """The double sum over character pairs that controls the leading variance.

    With mu = R-hat, c = (1 - mu)^{2/3}, a = s c(-.) and b = conj(s) c, it is
    -(1/|G|^2) sum_{gamma, gamma'} a(gamma) b(gamma') [c(gamma' - gamma)
    - (2 - mu(-gamma) - mu(gamma'))^{2/3}], summed without forming the pairs.
    The first term is a group convolution of a with c (by FFT) dotted with b.
    The second depends on a pair only through mu(-gamma) and mu(gamma'), so a
    and b are summed within each of the D distinct values of mu, and the (D, D)
    table in blocks of at most 2^16 entries: O(|G| log |G| + D^2) time, O(|G|)
    memory.  Values of mu an ulp apart are not merged by rounding: the terms
    cancel, and rounding moved results by up to 9e-11 relative.  Powers are
    principal-branch; Re(1 - mu) >= 0 keeps them off the branch cut.
    """
    if not isinstance(s, SpectrumTable):
        raise GroupMismatchError(f"variance_factor takes a SpectrumTable, got {type(s).__name__}")
    group = s.group
    if not isinstance(rhat, RHatTable) or rhat.group != group:
        raise InvalidRHatError("distribution transform is not an RHatTable over the spectrum's group")

    def negated(x: np.ndarray) -> np.ndarray:
        return np.roll(np.flip(x.reshape(group.orders)), 1, range(group.degree)).ravel()

    c = np.power(1.0 - rhat.values, 2.0 / 3.0)
    a, b = s.values * negated(c), s.values.conj() * c
    conv = np.fft.ifftn(np.fft.fftn(a.reshape(group.orders)) * np.fft.fftn(c.reshape(group.orders)))
    total = np.dot(b, conv.ravel())
    u, inv = np.unique(rhat.values, return_inverse=True)

    def summed(x: np.ndarray, index: np.ndarray) -> np.ndarray:
        return np.bincount(index, x.real, len(u)) + 1j * np.bincount(index, x.imag, len(u))

    a_u, b_v = summed(a, negated(inv)), summed(b, inv)
    step = max(1, (1 << 16) // len(u))
    for lo in range(0, len(u), step):
        split = np.power(2.0 - u[lo : lo + step, None] - u[None, :], 2.0 / 3.0)
        total -= (a_u[lo : lo + step, None] * split * b_v).sum()
    return complex(-total / group.total_size**2)


def predict_variance(s: SpectrumTable, rhat: RHatTable, lam: float, m: int) -> float:
    """Leading-order variance of the moment estimate at support size lam."""
    m = _checked_int("m", m, *_FIELD_RANGES["m"])
    if not (isinstance(lam, numbers.Real) and 0 <= lam < math.inf):
        raise InvalidConfigError(f"support size must be finite and nonnegative, got {lam!r}")
    alpha = variance_factor(s, rhat)
    g13 = gamma_fn(-1.0 / 3.0)
    g23 = gamma_fn(-2.0 / 3.0)
    return 3.0 / m * lam * lam * (-g23) / (g13 * g13) * alpha.real
