"""Triple-tower linear sketches over a finite abelian group or the integers.

Two modes share one register layout of 3*(b-a) cells:

* ``poisson``: every update touches every cell; cell k in column j receives
  a deterministic pseudo-Poisson count of copies with mean e^{-k/m}, keyed by
  (seed, element, column, cell).  The sketch is exactly linear in the update
  values, so inverse updates cancel bit-for-bit.
* ``binomial``: each column hashes the element to at most one cell, with
  P(cell k) = e^{-k/m} and a no-op otherwise; requires the total cell mass
  sigma = sum e^{-k/m} < 1.  Updates cost O(1) per column.

Counts are drawn by inverting a per-cell Poisson CDF at a single 53-bit
uniform, so one PRF word fully determines a cell count.  CDF tables are
truncated where the remaining tail is below 2^-60; in particular cells with
mean below ~2^-54 degenerate to a one-threshold Bernoulli draw, which keeps
full-tower updates affordable without distorting the marginals measurably.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import prf
from .errors import (
    CannotCombineError,
    CorruptSketchError,
    GroupMismatchError,
    InvalidConfigError,
    InvalidGroupError,
    RegisterOverflowError,
)
from .groups import GroupDescriptor, make_group

_CDF_TAIL = 2.0**-60
_MAX_POISSON_MEAN = 700.0  # e^{-mu} underflows past this; construction rejects it
_INT_REGISTER_BOUND = 1 << 62
_MAX_UPDATE_MAGNITUDE = 1 << 31

MAGIC = b"FTWR"
VERSION = 1

_MODE_BYTE = {
    ("poisson", False): 0,
    ("binomial", False): 1,
    ("poisson", True): 2,
    ("binomial", True): 3,
}
_MODE_FROM_BYTE = {v: k for k, v in _MODE_BYTE.items()}


@dataclass(frozen=True)
class SketchConfig:
    group: GroupDescriptor | None
    m: int
    a: int
    b: int
    seed: int
    mode: str = "poisson"
    copies: int = 3

    def __post_init__(self):
        if self.mode not in ("poisson", "binomial"):
            raise InvalidConfigError(f"unknown mode {self.mode!r}")
        if self.copies != 3:
            raise InvalidConfigError("the estimator is built around exactly 3 columns")
        if self.m < 2:
            raise InvalidConfigError(f"accuracy parameter m={self.m} must be >= 2")
        if self.b <= self.a:
            raise InvalidConfigError(f"need b > a, got a={self.a}, b={self.b}")
        if self.mode == "binomial" and self.sigma >= 1.0:
            raise InvalidConfigError(
                f"binomial tower needs sigma < 1, got sigma={self.sigma:.4g}; raise a"
            )
        if self.mode == "poisson" and math.exp(-self.a / self.m) > _MAX_POISSON_MEAN:
            raise InvalidConfigError(
                f"cell mean e^{{-a/m}} exceeds {_MAX_POISSON_MEAN}; raise a"
            )
        if not 0 <= self.seed < 2**64:
            raise InvalidConfigError("seed must be an unsigned 64-bit value")

    @property
    def num_cells(self) -> int:
        return self.b - self.a

    @property
    def sigma(self) -> float:
        """Total cell mass sum_{k=a}^{b-1} e^{-k/m}."""
        return _cell_mass(self.m, self.a, self.b)


@lru_cache(maxsize=4096)
def _cell_mass(m: int, a: int, b: int) -> float:
    # cached: every dataclasses.replace of a binomial config re-validates sigma
    return float(sum(math.exp(-k / m) for k in range(a, b)))


def default_window(m: int) -> tuple[int, int]:
    """The stock truncation (0, 22m): cell masses span 1 down to ~2^-32."""
    return 0, 22 * m


def theoretical_window(m: int, lam: float) -> tuple[int, int]:
    """Support-size-dependent truncation (m(ln lam - 6 ln m), m(ln lam + 3 ln m))."""
    if lam <= 0:
        raise InvalidConfigError("support size must be positive")
    lo = math.floor(m * (math.log(lam) - 6.0 * math.log(m)))
    hi = math.ceil(m * (math.log(lam) + 3.0 * math.log(m)))
    return lo, max(hi, lo + 1)


@lru_cache(maxsize=65536)
def _poisson_cdf(m: int, k: int) -> tuple[np.ndarray, np.uint64]:
    """CDF thresholds P(X <= c) for X ~ Poisson(e^{-k/m}), tail-truncated.

    Returns the ascending threshold array and the 53-bit integer threshold
    equivalent to the first entry (count >= 1 iff u53 >= that threshold).
    """
    mu = math.exp(-k / m)
    if mu > _MAX_POISSON_MEAN:
        raise InvalidConfigError(f"cell mean {mu:.3g} exceeds {_MAX_POISSON_MEAN}")
    p = math.exp(-mu)
    cdf = [p]
    c = p
    n = 0
    while 1.0 - c > _CDF_TAIL and n < 4000:
        n += 1
        p *= mu / n
        c += p
        cdf.append(min(c, 1.0))
        if p == 0.0:
            break
    arr = np.array(cdf)
    arr.setflags(write=False)
    zero_thr = np.uint64(min(1 << 53, math.ceil(arr[0] * 2.0**53)))
    return arr, zero_thr


def cell_count(seed: int, v: int, j: int, k: int, m: int) -> int:
    """Deterministic pseudo-Poisson(e^{-k/m}) count for element v, column j, cell k."""
    counts = _poisson_counts_batch(
        seed, np.array([v], dtype=np.int64), j, k, m
    )
    return int(counts[0])


def _poisson_counts_batch(seed: int, vs: np.ndarray, j: int, k: int, m: int) -> np.ndarray:
    state = prf.stream_state(seed, prf.DOMAIN_CELL, vs)
    u = prf.u53(prf.draw(state, prf.tuple_key(j=j, k=k)))
    cdf, zero_thr = _poisson_cdf(m, k)
    counts = np.zeros(len(vs), dtype=np.int64)
    hit = u >= zero_thr
    if np.any(hit):
        uf = u[hit].astype(np.float64) * 2.0**-53
        counts[hit] = np.searchsorted(cdf, uf, side="right")
    return counts


def binomial_assign(seed: int, v: int, j: int, config: SketchConfig) -> int | None:
    """Level in [a, b) for one column of the binomial tower, or None for no-op."""
    if config.mode != "binomial":
        raise InvalidConfigError("level assignment is a binomial-mode operation")
    levels = _binomial_levels_batch(seed, np.array([v], dtype=np.int64), j, config)
    lv = int(levels[0])
    return None if lv == config.num_cells else config.a + lv


@lru_cache(maxsize=4096)
def _level_cdf(m: int, a: int, b: int) -> np.ndarray:
    cum = np.cumsum([math.exp(-k / m) for k in range(a, b)])
    cum.setflags(write=False)
    return cum


def _binomial_levels_batch(seed: int, vs: np.ndarray, j: int, config: SketchConfig) -> np.ndarray:
    """Level offsets in [0, num_cells]; num_cells encodes the no-op."""
    state = prf.stream_state(seed, prf.DOMAIN_LEVEL, vs)
    uf = prf.to_uniform53(prf.draw(state, prf.tuple_key(j=j)))
    cum = _level_cdf(config.m, config.a, config.b)
    return np.searchsorted(cum, uf, side="right")


def _as_int64(arr: np.ndarray) -> np.ndarray:
    """Update values as int64; any other entry must convert to int64 exactly.

    Arrays whose dtype always fits int64 pass without a per-element test;
    non-integral, NaN, inf and out-of-range entries raise.
    """
    kind, size = arr.dtype.kind, arr.dtype.itemsize
    if kind in "bi" or (kind == "u" and size < 8):
        return arr.astype(np.int64, copy=False)
    with np.errstate(invalid="ignore"):
        out = arr.astype(np.int64)
    if not np.array_equal(out, arr):
        raise GroupMismatchError("update values must be integers")
    return out


def _canonical_values(group: GroupDescriptor | None, ys) -> np.ndarray:
    """Update values as int64: (n,) integers, or (n, d) canonical residues of ``group``."""
    arr = np.asarray(ys)
    if group is None:
        return _as_int64(arr)
    if arr.ndim == 1 and group.degree == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[1] != group.degree:
        raise GroupMismatchError(
            f"values of shape {arr.shape} do not match a degree-{group.degree} group"
        )
    orders = np.array(group.orders, dtype=np.int64)
    return np.mod(_as_int64(arr), orders)


class _TowerBase:
    """Register storage, the shared Poisson/binomial ingestion and the structural operations."""

    config: SketchConfig
    registers: np.ndarray

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, type(self))
            and self.config == other.config
            and np.array_equal(self.registers, other.registers)
        )

    def copy(self):
        return type(self)(self.config, self.registers.copy())

    # -- updates -----------------------------------------------------------

    def update(self, v: int, y) -> None:
        self.update_batch([v], [y])

    def update_batch(self, vs: Sequence[int], ys) -> None:
        vs = np.asarray(vs, dtype=np.int64)
        yr = _canonical_values(self.config.group, ys)
        if len(vs) != len(yr):
            raise GroupMismatchError("element ids and values have different lengths")
        if len(vs) == 0:
            return
        self._ingest(vs, yr)

    def _ingest(self, vs: np.ndarray, ys: np.ndarray) -> None:
        if self.config.mode == "poisson":
            self._ingest_poisson(vs, ys)
        else:
            self._ingest_binomial(vs, ys)

    def _ingest_poisson(self, vs: np.ndarray, ys: np.ndarray) -> None:
        cfg = self.config
        n = len(vs)
        state = prf.stream_state(cfg.seed, prf.DOMAIN_CELL, vs)  # (n,)
        jkeys = prf.tuple_key(
            j=np.arange(1, 4, dtype=np.int64)[:, None],
            k=np.arange(cfg.a, cfg.b, dtype=np.int64)[None, :],
        )  # (3, nk)
        for i, k in enumerate(range(cfg.a, cfg.b)):
            cdf, zero_thr = _poisson_cdf(cfg.m, k)
            u = prf.u53(prf.draw(state[None, :], jkeys[:, i][:, None]))  # (3, n)
            if cdf[0] < 0.5:
                # dense cell: most updates land here, invert the CDF wholesale
                uf = u.astype(np.float64) * 2.0**-53
                counts = np.searchsorted(cdf, uf, side="right")
                self._add_dense(i, counts.astype(np.int64), ys)
            else:
                jj, vv = np.nonzero(u >= zero_thr)
                if jj.size == 0:
                    continue
                uf = u[jj, vv].astype(np.float64) * 2.0**-53
                cnt = np.searchsorted(cdf, uf, side="right").astype(np.int64)
                self._add_sparse(i, jj, vv, cnt, ys)

    def _ingest_binomial(self, vs: np.ndarray, ys: np.ndarray) -> None:
        cfg = self.config
        nk = cfg.num_cells
        for j in (1, 2, 3):
            levels = _binomial_levels_batch(cfg.seed, vs, j, cfg)
            live = levels < nk
            if not np.any(live):
                continue
            self._add_levels(levels[live], j - 1, ys[live])

    # -- structure ---------------------------------------------------------

    def window(self, a: int, b: int):
        """Sub-sketch over [a, b); valid because Poisson cell draws are keyed per cell."""
        if self.config.mode != "poisson":
            raise InvalidConfigError("windowing is only meaningful for Poisson towers")
        if not (self.config.a <= a < b <= self.config.b):
            raise InvalidConfigError("window must lie inside the stored cell range")
        cfg = replace(self.config, a=a, b=b)
        lo = a - self.config.a
        return type(self)(cfg, self.registers[lo : lo + (b - a)].copy())

    def serialize(self) -> bytes:
        return _serialize(self.config, self.registers)


class TowerSketch(_TowerBase):
    """Group-valued triple tower; registers are canonical residue vectors."""

    def __init__(self, config: SketchConfig, registers: np.ndarray | None = None):
        if config.group is None:
            raise InvalidConfigError("group-valued sketch needs a group in its config")
        self.config = config
        d = config.group.degree
        if registers is None:
            registers = np.zeros((config.num_cells, 3, d), dtype=np.int64)
        self.registers = registers

    @property
    def group(self) -> GroupDescriptor:
        return self.config.group

    def _orders_arr(self) -> np.ndarray:
        return np.array(self.group.orders, dtype=np.int64)

    def _chunk_size(self, max_count: int) -> int:
        worst = max_count * max(self.group.orders)
        return max(1, _INT_REGISTER_BOUND // max(worst, 1))

    def _add_dense(self, i: int, counts: np.ndarray, ys: np.ndarray) -> None:
        # counts: (3, n), ys: (n, d)
        n = counts.shape[1]
        step = self._chunk_size(int(counts.max(initial=1)))
        orders = self._orders_arr()
        if step >= n:
            contrib = counts @ ys
        else:
            contrib = np.zeros((3, ys.shape[1]), dtype=np.int64)
            for s in range(0, n, step):
                contrib = (contrib + counts[:, s : s + step] @ ys[s : s + step]) % orders
        self.registers[i] = (self.registers[i] + contrib) % orders

    def _add_sparse(self, i, jj, vv, cnt, ys) -> None:
        orders = self._orders_arr()
        contrib = np.zeros((3, ys.shape[1]), dtype=np.int64)
        np.add.at(contrib, jj, (cnt[:, None] * ys[vv]) % orders)
        self.registers[i] = (self.registers[i] + contrib) % orders

    def _add_levels(self, levels, col, ys) -> None:
        orders = self._orders_arr()
        np.add.at(self.registers[:, col, :], levels, ys)
        self.registers[:, col, :] %= orders

    def reduce_values_mod(self, p: int) -> "TowerSketch":
        """A copy of this Z_p sketch: its registers are already reduced."""
        if self.group.orders != (p,):
            raise GroupMismatchError(f"sketch is over {self.group.orders}, not Z_{p}")
        return self.copy()


def combine_product(s1: TowerSketch, s2: TowerSketch) -> TowerSketch:
    """Cellwise-paired sketch over the product group.

    Requires identical (m, a, b, seed, mode): cell assignment depends only on
    (seed, element, column, cell), never on values, so the paired registers
    are exactly the sketch of the product stream.
    """
    c1, c2 = s1.config, s2.config
    if replace(c1, group=None) != replace(c2, group=None):
        raise CannotCombineError("sketches must share m, a, b, seed and mode")
    group = c1.group.product(c2.group)
    cfg = replace(c1, group=group)
    regs = np.concatenate([s1.registers, s2.registers], axis=2)
    return TowerSketch(cfg, regs.copy())


class IntegerTowerSketch(_TowerBase):
    """Exact signed-integer registers with query-time modulo reduction."""

    def __init__(self, config: SketchConfig, registers: np.ndarray | None = None):
        if config.group is not None:
            raise InvalidConfigError("integer sketch config must not carry a group")
        self.config = config
        if registers is None:
            registers = np.zeros((config.num_cells, 3), dtype=np.int64)
        self.registers = registers

    def _ingest(self, vs: np.ndarray, ys: np.ndarray) -> None:
        if np.any(np.abs(ys) > _MAX_UPDATE_MAGNITUDE):
            raise RegisterOverflowError(
                f"update magnitude exceeds the declared bound {_MAX_UPDATE_MAGNITUDE}"
            )
        super()._ingest(vs, ys)
        if np.any(np.abs(self.registers) >= _INT_REGISTER_BOUND):
            raise RegisterOverflowError("integer register exceeded the 2^62 workload bound")

    def _add_dense(self, i, counts, ys) -> None:
        n = counts.shape[1]
        worst = int(counts.max(initial=0)) * int(np.max(np.abs(ys), initial=1))
        step = max(1, _INT_REGISTER_BOUND // max(worst, 1))
        if step >= n:
            self.registers[i] += counts @ ys
        else:
            for s in range(0, n, step):
                self.registers[i] += counts[:, s : s + step] @ ys[s : s + step]
                if np.any(np.abs(self.registers[i]) >= _INT_REGISTER_BOUND):
                    raise RegisterOverflowError("integer register exceeded the 2^62 bound")

    def _add_sparse(self, i, jj, vv, cnt, ys) -> None:
        np.add.at(self.registers[i], jj, cnt * ys[vv])

    def _add_levels(self, levels, col, ys) -> None:
        np.add.at(self.registers[:, col], levels, ys)

    def reduce_values_mod(self, p: int) -> TowerSketch:
        """Group-valued view of the registers mod p (query-time reduction)."""
        group = make_group([p])
        cfg = replace(self.config, group=group)
        regs = np.mod(self.registers, p)[:, :, None].astype(np.int64)
        return TowerSketch(cfg, regs)


def sketch_new(config: SketchConfig) -> TowerSketch | IntegerTowerSketch:
    """Empty sketch for a validated config (integer-mode iff group is None)."""
    if config.group is None:
        return IntegerTowerSketch(config)
    return TowerSketch(config)


# -- wire format -------------------------------------------------------------

_HEADER = struct.Struct("<4sH")
_FIXED = struct.Struct("<IiiQB")


def _serialize(config: SketchConfig, registers: np.ndarray) -> bytes:
    integer = config.group is None
    orders = (0,) if integer else config.group.orders
    return b"".join(
        [
            _HEADER.pack(MAGIC, VERSION),
            struct.pack("<I", len(orders)),
            struct.pack(f"<{len(orders)}I", *orders),
            _FIXED.pack(config.m, config.a, config.b, config.seed, _MODE_BYTE[(config.mode, integer)]),
            registers.astype("<i8" if integer else "<u4").tobytes(),
        ]
    )


def deserialize(data: bytes) -> TowerSketch | IntegerTowerSketch:
    """Sketch from its wire format; any malformed blob raises CorruptSketchError."""
    try:
        magic, version = _HEADER.unpack_from(data, 0)
        if magic != MAGIC:
            raise CorruptSketchError(f"bad magic {magic!r}")
        if version != VERSION:
            raise CorruptSketchError(f"unsupported version {version}")
        off = _HEADER.size
        (d,) = struct.unpack_from("<I", data, off)
        off += 4
        orders = struct.unpack_from(f"<{d}I", data, off)
        off += 4 * d
        m, a, b, seed, mode_byte = _FIXED.unpack_from(data, off)
        off += _FIXED.size
    except struct.error as exc:
        raise CorruptSketchError("truncated sketch header") from exc
    if mode_byte not in _MODE_FROM_BYTE:
        raise CorruptSketchError(f"unknown mode byte {mode_byte}")
    mode, integer = _MODE_FROM_BYTE[mode_byte]
    nk = b - a
    if nk <= 0:
        raise CorruptSketchError("empty cell range")
    if integer and orders != (0,):
        raise CorruptSketchError("integer sketch must carry the Z sentinel order 0")
    try:
        group = None if integer else make_group(orders)
    except InvalidGroupError as exc:
        raise CorruptSketchError(f"invalid group in header: {exc}") from exc
    shape = (nk, 3) if integer else (nk, 3, group.degree)
    dtype = np.dtype("<i8" if integer else "<u4")
    expect = math.prod(shape) * dtype.itemsize
    if len(data) - off != expect:
        raise CorruptSketchError(f"register payload has {len(data) - off} bytes, expected {expect}")
    # built only after the payload size matches, so a forged header cannot
    # make the config validation loop over a huge cell range
    try:
        cfg = SketchConfig(group, m, a, b, seed, mode)
    except InvalidConfigError as exc:
        raise CorruptSketchError(f"invalid config in header: {exc}") from exc
    regs = np.frombuffer(data, dtype=dtype, offset=off).reshape(shape).astype(np.int64)
    if integer:
        if np.any((regs >= _INT_REGISTER_BOUND) | (regs <= -_INT_REGISTER_BOUND)):
            raise CorruptSketchError("integer register outside the 2^62 bound")
        return IntegerTowerSketch(cfg, regs)
    if np.any(regs >= np.array(group.orders, dtype=np.int64)):
        raise CorruptSketchError("register residue out of range")
    return TowerSketch(cfg, regs)
